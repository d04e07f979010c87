//! Deterministic fail-point registry for crash and fault-injection tests.
//!
//! The persistence layer ([`crate::persist`]) names each point where a real
//! process could die or an I/O call could fail — *fail-point sites* — and
//! calls [`hit`] there; so do the serving layer's shard write path
//! (`shard.*`) and its standing-query notifier (`standing.refresh`, hit
//! before each refresh). In normal operation a hit is a cheap no-op; a test
//! (or the `ARSP_FAILPOINTS` environment variable) can *arm* a site with a
//! [`FailAction`] to inject a panic, an I/O error, or a delay at exactly
//! that point, deterministically. The crash-recovery suite iterates
//! [`SITES`], kills the write path at every one of them, and proves
//! recovery lands on an applied-batch prefix (`cargo xtask lint` enforces
//! that every registered site appears in that test matrix).
//!
//! Sites sit on I/O paths or before a whole refresh only, so the
//! bookkeeping cost of a hit (one uncontended mutex lock) is noise next to
//! the work around it. Hits
//! are counted whether or not the site is armed, so tests can assert a
//! path was actually exercised.
//!
//! The registry is process-global: tests that arm sites serialise
//! themselves (see `tests/crash_recovery.rs`) and call [`reset`] before
//! and after.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Every registered fail-point site. Arming an unknown site panics, and the
/// lint's failpoint-coverage rule checks this list against both the
/// [`hit`] call sites in [`crate::persist`] and the crash-recovery test
/// matrix — a site added here without a matching test fails `cargo xtask
/// lint`.
pub const SITES: &[&str] = &[
    "wal.append.header",
    "wal.append.payload",
    "wal.append.sync",
    "snapshot.write",
    "snapshot.sync",
    "snapshot.rename",
    "snapshot.dirsync",
    "wal.reset",
    "shard.apply",
    "shard.publish",
    "shard.probe",
    "shard.recover",
    "standing.refresh",
];

/// Denominator of the [`FailAction::Chance`] probability: a chance action
/// stores `p` in millionths, keeping the action type `Copy + Eq`.
pub const CHANCE_DENOMINATOR: u32 = 1_000_000;

/// What an armed fail-point does when hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a message naming the site — the in-process stand-in for a
    /// process kill (the write path unwinds mid-operation, exactly like
    /// `kill -9` freezes the file state mid-operation).
    Panic,
    /// Return an `std::io::Error` from [`hit`], modelling a failing syscall
    /// (full disk, EIO) that the caller must surface as a typed error.
    Error,
    /// Sleep for the given duration, modelling a stall (slow disk, network
    /// file system) for deadline tests.
    Delay(Duration),
    /// Panic with the given probability (in millionths, see
    /// [`CHANCE_DENOMINATOR`]) on **every** hit, drawn from the registry's
    /// seeded RNG — *not* one-shot, so a soak test can randomize crash
    /// timing while staying deterministic per seed ([`seed_rng`]).
    Chance(u32),
}

impl FailAction {
    /// A [`FailAction::Chance`] firing with probability `p ∈ [0, 1]`
    /// (rounded to millionths).
    pub fn chance(p: f64) -> FailAction {
        let millionths = (p.clamp(0.0, 1.0) * f64::from(CHANCE_DENOMINATOR)).round() as u32;
        FailAction::Chance(millionths.min(CHANCE_DENOMINATOR))
    }
}

#[derive(Default)]
struct SiteState {
    /// Armed action, if any; one-shot (disarmed when it fires).
    action: Option<FailAction>,
    /// Hits to let pass before the action fires (`arm_after`).
    skip: u64,
    /// Total hits ever, armed or not.
    hits: u64,
}

fn registry() -> &'static Mutex<HashMap<&'static str, SiteState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, SiteState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var("ARSP_FAILPOINTS") {
            arm_from_spec(&mut map, &spec);
        }
        Mutex::new(map)
    })
}

/// The seed the chance RNG starts from (and returns to on [`reset`]):
/// `ARSP_FAILPOINT_SEED` when set, a fixed constant otherwise.
fn initial_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| match std::env::var("ARSP_FAILPOINT_SEED") {
        Ok(raw) => raw
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("ARSP_FAILPOINT_SEED `{raw}` is not a u64")),
        Err(_) => 0x9e37_79b9_7f4a_7c15,
    })
}

fn rng_state() -> &'static Mutex<u64> {
    static RNG: OnceLock<Mutex<u64>> = OnceLock::new();
    RNG.get_or_init(|| Mutex::new(initial_seed()))
}

/// Re-seeds the probabilistic-trigger RNG: [`FailAction::Chance`] draws
/// after this call are a pure function of `(seed, hit order)`, so a soak
/// test that fixes its seed crashes at the same hits on every run.
pub fn seed_rng(seed: u64) {
    // xorshift64* needs a non-zero state.
    *lock_rng() = seed.max(1);
}

/// One xorshift64* draw mapped onto `[0, CHANCE_DENOMINATOR)`.
fn draw_millionths() -> u32 {
    let mut state = lock_rng();
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    ((x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % u64::from(CHANCE_DENOMINATOR)) as u32
}

fn lock_rng() -> std::sync::MutexGuard<'static, u64> {
    rng_state()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Parses an `ARSP_FAILPOINTS` spec: `;`-separated `site=action` pairs,
/// where `action` is `panic`, `error`, `delay:<ms>`, or a bare probability
/// like `0.05` (a [`FailAction::Chance`] firing on each hit with that
/// probability from the seeded RNG), optionally suffixed `@<skip>` to let
/// the first `<skip>` hits pass (`wal.append.sync=panic`,
/// `snapshot.rename=error@2`, `shard.apply=0.05`). Malformed entries
/// panic — a typo silently injecting nothing would make a crash test
/// vacuous.
fn arm_from_spec(map: &mut HashMap<&'static str, SiteState>, spec: &str) {
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let (site, action) = entry
            .split_once('=')
            .unwrap_or_else(|| panic!("ARSP_FAILPOINTS entry `{entry}` is not site=action"));
        let (action, skip) = match action.split_once('@') {
            Some((a, s)) => (
                a,
                s.parse::<u64>()
                    .unwrap_or_else(|_| panic!("bad skip count in `{entry}`")),
            ),
            None => (action, 0),
        };
        let action = match action.split_once(':') {
            None if action == "panic" => FailAction::Panic,
            None if action == "error" => FailAction::Error,
            None if action
                .parse::<f64>()
                .is_ok_and(|p| (0.0..=1.0).contains(&p)) =>
            {
                FailAction::chance(action.parse::<f64>().expect("checked above"))
            }
            Some(("delay", ms)) => FailAction::Delay(Duration::from_millis(
                ms.parse::<u64>()
                    .unwrap_or_else(|_| panic!("bad delay in `{entry}`")),
            )),
            _ => panic!("unknown fail action in `{entry}`"),
        };
        let state = map.entry(site_name(site.trim())).or_default();
        state.action = Some(action);
        state.skip = skip;
    }
}

/// The canonical `&'static str` for a site, panicking on unknown names so
/// typos fail fast instead of arming nothing.
fn site_name(site: &str) -> &'static str {
    SITES
        .iter()
        .copied()
        .find(|&s| s == site)
        .unwrap_or_else(|| panic!("unknown fail-point site `{site}` (see failpoint::SITES)"))
}

/// Arms `site` to fire `action` on its next hit. One-shot: the action
/// disarms when it fires.
pub fn arm(site: &str, action: FailAction) {
    arm_after(site, action, 0);
}

/// Arms `site` to let `skip` hits pass, then fire `action` once. Lets a
/// crash test target e.g. the third WAL append specifically.
pub fn arm_after(site: &str, action: FailAction, skip: u64) {
    let site = site_name(site);
    let mut map = lock_registry();
    let state = map.entry(site).or_default();
    state.action = Some(action);
    state.skip = skip;
}

/// Disarms `site` (hit counting continues).
pub fn disarm(site: &str) {
    let site = site_name(site);
    if let Some(state) = lock_registry().get_mut(site) {
        state.action = None;
        state.skip = 0;
    }
}

/// Disarms every site, zeroes every hit counter, and restores the chance
/// RNG to its initial seed — test isolation. Note this also clears arms
/// installed from `ARSP_FAILPOINTS`.
pub fn reset() {
    lock_registry().clear();
    *lock_rng() = initial_seed().max(1);
}

/// Total hits `site` has ever received (armed or not) since the last
/// [`reset`] — how tests assert a code path was actually exercised.
pub fn hit_count(site: &str) -> u64 {
    let site = site_name(site);
    lock_registry().get(site).map_or(0, |s| s.hits)
}

/// The fail-point itself: called by the persistence layer at each named
/// site. Unarmed, it counts the hit and returns `Ok(())`. Armed, it fires
/// the action once: [`FailAction::Panic`] unwinds, [`FailAction::Error`]
/// returns an `std::io::Error` naming the site, [`FailAction::Delay`]
/// sleeps then succeeds. [`FailAction::Chance`] is the exception to the
/// one-shot rule: it stays armed and panics on each hit with its
/// configured probability, drawn from the seeded RNG.
pub fn hit(site: &str) -> std::io::Result<()> {
    let site = site_name(site);
    let fired = {
        let mut map = lock_registry();
        let state = map.entry(site).or_default();
        state.hits += 1;
        match state.action {
            None => None,
            Some(_) if state.skip > 0 => {
                state.skip -= 1;
                None
            }
            Some(action @ FailAction::Chance(_)) => Some(action), // stays armed
            Some(action) => {
                state.action = None; // one-shot
                Some(action)
            }
        }
    };
    match fired {
        None => Ok(()),
        Some(FailAction::Panic) => panic!("fail-point `{site}` fired (injected crash)"),
        Some(FailAction::Error) => Err(std::io::Error::other(format!(
            "fail-point `{site}` fired (injected I/O error)"
        ))),
        Some(FailAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(FailAction::Chance(millionths)) => {
            if draw_millionths() < millionths {
                panic!("fail-point `{site}` fired (injected crash, probabilistic)");
            }
            Ok(())
        }
    }
}

fn lock_registry() -> std::sync::MutexGuard<'static, HashMap<&'static str, SiteState>> {
    registry()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Serialises tests that arm fail-points: the registry is process-global,
/// so two tests arming sites concurrently would inject into each other.
/// Hold the returned guard for the duration of the test (the guard rides
/// through poisoning — a panicking fault test must not wedge the others).
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; these tests serialise on the
    /// public gate (shared with `persist`'s fault tests).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        exclusive()
    }

    #[test]
    fn unarmed_hits_count_and_pass() {
        let _gate = serial();
        reset();
        assert_eq!(hit_count("wal.reset"), 0);
        hit("wal.reset").expect("unarmed hit passes");
        hit("wal.reset").expect("unarmed hit passes");
        assert_eq!(hit_count("wal.reset"), 2);
        reset();
    }

    #[test]
    fn armed_error_fires_once_after_the_skip() {
        let _gate = serial();
        reset();
        arm_after("wal.append.sync", FailAction::Error, 2);
        hit("wal.append.sync").expect("skipped");
        hit("wal.append.sync").expect("skipped");
        let err = hit("wal.append.sync").expect_err("third hit fires");
        assert!(err.to_string().contains("wal.append.sync"));
        hit("wal.append.sync").expect("one-shot: disarmed after firing");
        assert_eq!(hit_count("wal.append.sync"), 4);
        reset();
    }

    #[test]
    fn armed_panic_unwinds_and_disarms() {
        let _gate = serial();
        reset();
        arm("snapshot.rename", FailAction::Panic);
        let caught = std::panic::catch_unwind(|| hit("snapshot.rename"));
        assert!(caught.is_err());
        hit("snapshot.rename").expect("disarmed after the injected crash");
        reset();
    }

    #[test]
    fn disarm_cancels_a_pending_action() {
        let _gate = serial();
        reset();
        arm("snapshot.write", FailAction::Error);
        disarm("snapshot.write");
        hit("snapshot.write").expect("disarmed");
        reset();
    }

    #[test]
    #[should_panic]
    fn unknown_sites_fail_fast() {
        arm("no.such.site", FailAction::Panic);
    }

    #[test]
    fn env_spec_parsing_arms_sites() {
        let _gate = serial();
        let mut map = HashMap::new();
        arm_from_spec(&mut map, "wal.reset=panic;snapshot.write=delay:7@2; ");
        assert_eq!(map["wal.reset"].action, Some(FailAction::Panic));
        assert_eq!(map["wal.reset"].skip, 0);
        assert_eq!(
            map["snapshot.write"].action,
            Some(FailAction::Delay(Duration::from_millis(7)))
        );
        assert_eq!(map["snapshot.write"].skip, 2);
    }

    #[test]
    fn env_spec_parsing_accepts_probabilities() {
        let _gate = serial();
        let mut map = HashMap::new();
        arm_from_spec(&mut map, "shard.apply=0.25;shard.probe=1.0@3");
        assert_eq!(map["shard.apply"].action, Some(FailAction::Chance(250_000)));
        assert_eq!(
            map["shard.probe"].action,
            Some(FailAction::Chance(CHANCE_DENOMINATOR))
        );
        assert_eq!(map["shard.probe"].skip, 3);
    }

    #[test]
    #[should_panic]
    fn env_spec_rejects_out_of_range_probabilities() {
        let mut map = HashMap::new();
        arm_from_spec(&mut map, "shard.apply=1.5");
    }

    #[test]
    fn chance_one_always_fires_and_stays_armed() {
        let _gate = serial();
        reset();
        arm("shard.apply", FailAction::chance(1.0));
        for _ in 0..3 {
            let caught = std::panic::catch_unwind(|| hit("shard.apply"));
            assert!(caught.is_err(), "p=1.0 fires on every hit, never disarms");
        }
        reset();
    }

    #[test]
    fn chance_zero_never_fires() {
        let _gate = serial();
        reset();
        arm("shard.apply", FailAction::chance(0.0));
        for _ in 0..64 {
            hit("shard.apply").expect("p=0.0 never fires");
        }
        reset();
    }

    #[test]
    fn chance_is_deterministic_per_seed() {
        let _gate = serial();
        reset();
        let pattern = |seed: u64| -> Vec<bool> {
            seed_rng(seed);
            arm("shard.publish", FailAction::chance(0.5));
            let fired = (0..64)
                .map(|_| std::panic::catch_unwind(|| hit("shard.publish")).is_err())
                .collect();
            disarm("shard.publish");
            fired
        };
        let first = pattern(42);
        let second = pattern(42);
        let other = pattern(43);
        assert_eq!(first, second, "same seed, same firing pattern");
        assert!(first.iter().any(|&f| f), "p=0.5 fires within 64 hits");
        assert!(!first.iter().all(|&f| f), "p=0.5 passes within 64 hits");
        assert_ne!(first, other, "different seed, different pattern");
        reset();
    }
}
