//! The prediction-service scenario from the paper's introduction — as a
//! **stream of alerts**.
//!
//! A stock-prediction service emits, for every stock, a set of predicted
//! (price, growth-rate) outcomes each with a confidence value — an uncertain
//! dataset. But a real feed never stands still: every tick batch revises
//! scenario confidences and price paths, new listings appear, and delisted
//! tickers drop out. The analyst still wants, between batches, the stocks
//! likely to be attractive under any weighting of price vs growth within a
//! factor-of-two band: `F = {ω1·P + ω2·GR | 0.5·ω2 ≤ ω1 ≤ 2·ω2}`.
//!
//! Instead of re-running the query after every tick, the analyst registers
//! two **standing queries** once ([`StandingSpec`] on the
//! [`DynamicArspEngine`]) and then only consumes change-sets: after each
//! mutation batch, [`DynamicArspEngine::refresh_standing`] pushes the
//! `(handle, old_prob, new_prob)` pairs that actually moved — each alert is
//! re-evaluated as one ordinary query over the engine's delta-patched caches
//! and diffed against its previous result — tagged with a gapless
//! `result_version` so a missed batch is provable. Replaying the feed client-side reconstructs the full
//! result, and the final answer is checked — exactly, bit for bit — against
//! a cold engine rebuilt from scratch: the standing subsystem's core
//! guarantee.
//!
//! Run with `cargo run --release --example stock_prediction`.

use std::collections::BTreeMap;

use arsp::core::dynamic::DynamicArspEngine;
use arsp::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// One tracked stock: its store object id and the handles of its live
/// prediction scenarios.
struct Stock {
    object: usize,
    scenarios: Vec<InstanceHandle>,
}

fn scenario_coords(rng: &mut ChaCha8Rng, quality: f64, volatility: f64) -> Vec<f64> {
    (0..2)
        .map(|_| (1.0 - quality + rng.gen_range(-volatility..volatility)).clamp(0.0, 1.0))
        .collect()
}

/// Replays a drained change-set into the client's mirror of the maintained
/// result, checking the feed protocol on the way: gapless `result_version`
/// and an `old_prob` that matches the mirror bitwise.
fn replay(
    mirror: &mut BTreeMap<InstanceHandle, f64>,
    next_result_version: &mut u64,
    batches: &[ChangeBatch],
) -> usize {
    let mut moved = 0;
    for batch in batches {
        assert_eq!(
            batch.result_version, *next_result_version,
            "the feed skipped a notification"
        );
        *next_result_version += 1;
        for pair in &batch.changes {
            let previous = match pair.new_prob {
                Some(new_prob) => mirror.insert(pair.handle, new_prob),
                None => mirror.remove(&pair.handle),
            };
            assert_eq!(
                previous.map(f64::to_bits),
                pair.old_prob.map(f64::to_bits),
                "old_prob must match the replayed state bitwise"
            );
            moved += 1;
        }
    }
    moved
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);

    // ---- initial feed: 300 stocks, 3–5 scenarios each -------------------
    let mut engine = DynamicArspEngine::new(2);
    let mut stocks: Vec<Stock> = Vec::new();
    for ticker in 0..300 {
        let quality: f64 = rng.gen_range(0.0..1.0);
        let volatility: f64 = rng.gen_range(0.02..0.3);
        let scenarios = rng.gen_range(3..=5);
        let confidence = rng.gen_range(0.6..0.9) / scenarios as f64;
        let instances: Vec<(Vec<f64>, f64)> = (0..scenarios)
            .map(|_| (scenario_coords(&mut rng, quality, volatility), confidence))
            .collect();
        let object = engine.insert_object(Some(format!("STK{ticker:04}")), instances);
        let handles = engine
            .store()
            .object_rows(object)
            .iter()
            .map(|&r| engine.store().handle_of_row(r as usize))
            .collect();
        stocks.push(Stock {
            object,
            scenarios: handles,
        });
    }
    println!(
        "Prediction feed: {} stocks, {} scenarios (version {})",
        engine.store().num_live_objects(),
        engine.store().num_live_instances(),
        engine.version()
    );

    let ratio = WeightRatio::uniform(2, 0.5, 2.0);
    let constraints = ratio.to_constraint_set();

    // ---- register the alerts ONCE ----------------------------------------
    // The band alert watches the factor-of-two preference band (served by
    // DUAL); the scan alert pins LOOP on the equivalent linear constraints.
    // Every refresh re-evaluates each alert as one ordinary query over the
    // engine's patched caches and delivers only the changed pairs.
    let band_alert = engine.subscribe(StandingSpec::ratio(&ratio));
    let scan_alert =
        engine.subscribe(StandingSpec::constraints(&constraints).algorithm(QueryAlgorithm::Loop));

    // The establishing batch carries the full initial result (old_prob is
    // None for every pair: everything is newly live to a fresh subscriber).
    let mut band_mirror = BTreeMap::new();
    let mut band_rv = 1;
    replay(&mut band_mirror, &mut band_rv, &band_alert.drain());
    let mut scan_mirror = BTreeMap::new();
    let mut scan_rv = 1;
    replay(&mut scan_mirror, &mut scan_rv, &scan_alert.drain());
    println!(
        "Alerts registered: band alert tracks {} scenarios, scan alert {} (result version 1)",
        band_mirror.len(),
        scan_mirror.len()
    );

    // ---- the streaming loop: mutate a batch, consume the change-sets -----
    let mut next_ticker = stocks.len();
    for batch in 0..6 {
        // A light tick: a couple of scenarios get revised confidences /
        // price paths. Every third batch the universe itself moves (one
        // IPO, one delisting).
        let revisions = 2;
        for _ in 0..revisions {
            let stock = &stocks[rng.gen_range(0..stocks.len())];
            if stock.scenarios.is_empty() || engine.store().is_retired(stock.object) {
                continue;
            }
            let handle = stock.scenarios[rng.gen_range(0..stock.scenarios.len())];
            let Some(row) = engine.store().row_of(handle) else {
                continue;
            };
            let drift: f64 = rng.gen_range(-0.05..0.05);
            let coords: Vec<f64> = engine
                .store()
                .coords_of(row)
                .iter()
                .map(|c| (c + drift).clamp(0.0, 1.0))
                .collect();
            let old_prob = engine.store().prob(row);
            let slack = 1.0 - (engine.store().live_total_prob(stock.object) - old_prob);
            let prob = (old_prob * rng.gen_range(0.6..1.3)).clamp(1e-3, slack.max(1e-3));
            engine.update_instance(handle, &coords, prob);
        }

        if batch % 3 == 2 {
            let quality: f64 = rng.gen_range(0.3..1.0);
            let instances: Vec<(Vec<f64>, f64)> = (0..3)
                .map(|_| (scenario_coords(&mut rng, quality, 0.1), 0.25))
                .collect();
            let object = engine.insert_object(Some(format!("STK{next_ticker:04}")), instances);
            let handles = engine
                .store()
                .object_rows(object)
                .iter()
                .map(|&r| engine.store().handle_of_row(r as usize))
                .collect();
            stocks.push(Stock {
                object,
                scenarios: handles,
            });
            next_ticker += 1;
            loop {
                let victim = rng.gen_range(0..stocks.len());
                if !engine.store().is_retired(stocks[victim].object)
                    && !engine.store().object_rows(stocks[victim].object).is_empty()
                {
                    engine.retire_object(stocks[victim].object);
                    break;
                }
            }
        }

        // One refresh maintains every subscription against the pending
        // delta; the analyst only touches what changed.
        let t = std::time::Instant::now();
        engine.refresh_standing();
        let refresh_time = t.elapsed();
        let band_batches = band_alert.drain();
        let scan_batches = scan_alert.drain();

        // The biggest mover this tick, from the change-set alone.
        let top_mover = band_batches
            .iter()
            .flat_map(|b| &b.changes)
            .max_by(|a, b| {
                let swing =
                    |p: &ChangedPair| (p.new_prob.unwrap_or(0.0) - p.old_prob.unwrap_or(0.0)).abs();
                swing(a).total_cmp(&swing(b))
            })
            .map(|pair| {
                let swing = pair.new_prob.unwrap_or(0.0) - pair.old_prob.unwrap_or(0.0);
                let label = engine
                    .store()
                    .row_of(pair.handle)
                    .map(|row| engine.store().object_of(row))
                    .and_then(|object| engine.store().object_label(object))
                    .unwrap_or("<delisted>")
                    .to_string();
                (label, swing)
            });

        let band_moved = replay(&mut band_mirror, &mut band_rv, &band_batches);
        let scan_moved = replay(&mut scan_mirror, &mut scan_rv, &scan_batches);
        let mover = top_mover
            .map(|(label, swing)| format!("{label} {swing:+.4}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "batch {batch}: version {:>4}  band Δ {:>3} pairs, scan Δ {:>3} pairs \
             (refresh {refresh_time:?})  top mover {mover}",
            engine.version(),
            band_moved,
            scan_moved,
        );
    }

    // ---- reporting --------------------------------------------------------
    let snapshot = engine.snapshot_dataset();
    let outcome = engine.ratio_query(&ratio).run();
    println!("\nTop-10 stocks by probability of being an undominated pick:");
    for (object, prob) in outcome.result().top_k_objects(&snapshot, 10) {
        println!(
            "  {}  Pr_rsky = {prob:.4}",
            snapshot.object(object).label.as_deref().unwrap_or("?")
        );
    }

    let stats = engine.serving_stats();
    println!(
        "\nSession counters: {} notifications delivered, {} store compactions",
        stats.notifications_delivered, stats.merges_performed
    );

    // ---- the standing subsystem's core guarantee, demonstrated -----------
    // The result reconstructed purely from the change-set feed equals a cold
    // engine rebuilt from scratch — bit for bit, for both subscriptions.
    let cold = ArspEngine::new(snapshot);
    for (name, mirror, probs) in [
        (
            "band",
            &band_mirror,
            cold.ratio_query(&ratio).run().result().probs().to_vec(),
        ),
        (
            "scan",
            &scan_mirror,
            cold.query(&constraints)
                .algorithm(QueryAlgorithm::Loop)
                .run()
                .result()
                .probs()
                .to_vec(),
        ),
    ] {
        let expected: BTreeMap<InstanceHandle, f64> = engine
            .store()
            .canonical_rows()
            .map(|row| engine.store().handle_of_row(row))
            .zip(probs)
            .collect();
        assert_eq!(
            mirror.len(),
            expected.len(),
            "{name}: replayed feed must cover every live scenario"
        );
        for (handle, prob) in mirror {
            assert_eq!(
                prob.to_bits(),
                expected[handle].to_bits(),
                "{name}: the replayed feed must equal a cold rebuild bitwise"
            );
        }
    }
    println!("\nReplayed change-set feed == cold rebuild, bit for bit. ✔");
}
