//! Repo-specific static analysis (`cargo xtask lint`).
//!
//! A dependency-free token scan over the workspace sources enforcing the
//! concurrency-correctness conventions that rustc cannot:
//!
//! 1. **sync-facade** — the serving/reclamation modules must reach their
//!    sync primitives and spawn their threads through `arsp_core::sync` (so
//!    the `interleave` model checker can swap them in), never
//!    `std::sync::{Mutex, Condvar, RwLock}`, `std::sync::atomic` or
//!    `std::thread::{spawn, JoinHandle}` directly.
//! 2. **lock-unwrap** — no `.unwrap()` in those modules: lock results go
//!    through the poisoning-aware `sync::lock` helper, everything else
//!    through `expect` with an invariant message.
//! 3. **kernel-purity** — the flat algorithm kernels stay free of
//!    `Instant::now` (timing belongs to the engine wrapper) and
//!    allocation-prone `.collect()` (the kernels draw working memory from
//!    scratch arenas).
//! 4. **safety-comments** — every `unsafe` token is preceded by a
//!    `// SAFETY:` comment. The workspace denies `unsafe_code`; the one
//!    allowed exception is the vendored rayon's worker pool
//!    (`vendor/rayon/src/pool.rs`), which this rule covers too.
//! 5. **api-coverage** — table-driven ([`API_COVERAGE`]): every `pub fn` in
//!    a scope whose name passes the row's filter must appear in an
//!    integration test under `tests/`, as a bare mention or as a call
//!    (`name(`). The rows couple the oracle suite
//!    (`tests/flat_engine_agreement.rs`) to every public `*flat_engine*`
//!    kernel in `arsp-core`, and the subscription protocol suite
//!    (`tests/standing_agreement.rs`) to every public function of the
//!    standing-query subsystem.
//! 6. **failpoint-coverage** — every fail-point site registered in
//!    `arsp_data::failpoint::SITES` must appear (as a quoted literal) in a
//!    kill matrix: the persistence sites in `tests/crash_recovery.rs`, the
//!    shard and standing-notifier sites in `tests/shard_agreement.rs`. And
//!    every `hit("...")` on a write path (persistence, cluster or the
//!    standing notifier) must name a registered site —
//!    so a fail-point added without a kill test, or a typo'd site name that
//!    would silently never fire, fails the lint.
//! 7. **supervisor-coverage** — every `QueryError` variant and every
//!    quarantine-machine edge in `cluster::TRANSITION_EDGES` must be named
//!    in at least one test under `tests/`, so a new typed error or state
//!    transition cannot land untested (and a vanished enum/array shape is
//!    reported rather than silently skipped).
//! 8. **kernel-ownership** — table-driven ([`KERNEL_OWNERS`]): inside
//!    `crates/core/src`, each algorithm kernel's inner call may appear only
//!    in the file that owns the kernel (`sum_weights_in(` in DUAL's
//!    module, `target_prob(` in LOOP's module), so a second copy of a
//!    kernel's fold cannot grow in another module unseen. Likewise the
//!    dispatch: every flat kernel entry (`arsp_loop_flat_engine(`,
//!    `arsp_kdtt_flat_engine(`, `arsp_bnb_engine(`,
//!    `arsp_dual_flat_engine(`) and every per-snapshot artifact builder
//!    (`build_instance_rtree(`, `build_dual_index(`,
//!    `instance_order_from_scores(`) may appear only in its defining
//!    module and in the one query pipeline, so neither a query front nor
//!    another algorithm's module can grow a second artifact path beside
//!    the serving snapshot's. `auto_select(` may appear only under
//!    `algorithms/`, in the pipeline and in its definition in the engine
//!    module. And a match arm on
//!    `MutationOp::Merge =>` may appear only in the dynamic engine, whose
//!    `apply` is the one place a batch reaches a serving store, so no
//!    front can grow its own unchecked copy of that dispatch.
//!
//! The scanner strips comments and string/char literals first, so banned
//! tokens in docs or messages never trigger, and the fixture snippets in
//! this file's unit tests can quote violations safely. Rules 6–7 partly
//! except themselves: the site names and edges they cross-reference *are*
//! string literals, so those parsers read the raw sources.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Serving/reclamation modules that must use the sync façade (rules 1–2).
const SYNC_SCOPE: &[&str] = &[
    "crates/core/src/service.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/coalesce.rs",
    "crates/core/src/stats.rs",
    "crates/core/src/scratch.rs",
    "crates/core/src/dynamic.rs",
    "crates/core/src/standing.rs",
];

/// Direct-std tokens banned inside [`SYNC_SCOPE`] (rule 1). `Arc` and
/// `Barrier` are deliberately absent: the façade re-exports `Arc`
/// unchanged, and `Barrier` only appears in tests as a start-line gate. So
/// are `std::thread::sleep` and `yield_now`, which start no thread.
const SYNC_BANNED: &[&str] = &[
    "std::sync::Mutex",
    "std::sync::Condvar",
    "std::sync::RwLock",
    "std::sync::atomic",
    "std::thread::spawn",
    "std::thread::JoinHandle",
];

/// Flat algorithm kernels that must stay timing- and allocation-free
/// (rule 3): file → the functions scanned in it.
const KERNEL_SCOPE: &[(&str, &[&str])] = &[
    (
        "crates/core/src/algorithms/kd_asp.rs",
        &[
            "kd_rec_flat",
            "flat_children",
            "flat_candidate_pass",
            "candidate_pass",
            "flat_node_enter",
            "flat_node_exit",
            "flat_sky_add",
            "flat_leaf_probability",
            "emit_coincident_flat",
            "flat_node_pass",
            "node_pass",
            "flat_kd_partition",
            "flat_quad_group",
            "certify_zeros",
            "corner_test",
        ],
    ),
    (
        "crates/core/src/algorithms/loop_scan.rs",
        &["gather", "target_prob"],
    ),
    (
        "crates/core/src/algorithms/dual.rs",
        &["dual_instance_prob"],
    ),
    (
        "crates/core/src/algorithms/bnb.rs",
        &[
            "fold_window_products",
            "below",
            "screen_corners",
            "is_pruned",
            "expand_node",
        ],
    ),
    (
        "crates/index/src/aggregate_rtree.rs",
        &["insert", "insert_rec", "window_sum", "sum_rec"],
    ),
];

/// Rule 6 inputs: the fail-point registry, the write paths that call
/// `hit(...)`, and the crash suites whose kill matrices must together
/// cover every registered site.
const FAILPOINT_REGISTRY: &str = "crates/data/src/failpoint.rs";
const FAILPOINT_WRITE_PATHS: &[&str] = &[
    "crates/data/src/persist.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/standing.rs",
];
const CRASH_SUITES: &[&str] = &["tests/crash_recovery.rs", "tests/shard_agreement.rs"];

/// Rule 7 inputs: the typed query errors and the quarantine state machine.
const QUERY_ERROR_FILE: &str = "crates/core/src/fault.rs";
const CLUSTER_FILE: &str = "crates/core/src/cluster.rs";

/// Rule 8 scope: the crate whose algorithms must keep one kernel each.
const KERNEL_OWNER_SCOPE: &str = "crates/core/src";

/// Rule 8: the query pipeline, the one place that fetches a query's
/// artifacts and runs its kernel.
const PIPELINE: &str = "crates/core/src/pipeline.rs";

/// Rule 8: each algorithm's flat kernel entries and artifact builders may be
/// called only from their defining module and from [`PIPELINE`].
const LOOP_OWNERS: &[&str] = &["crates/core/src/algorithms/loop_scan.rs", PIPELINE];
const KDTT_OWNERS: &[&str] = &["crates/core/src/algorithms/kdtt.rs", PIPELINE];
const BNB_OWNERS: &[&str] = &["crates/core/src/algorithms/bnb.rs", PIPELINE];
const DUAL_OWNERS: &[&str] = &["crates/core/src/algorithms/dual.rs", PIPELINE];

/// Rule 8 table: a kernel's inner call or a dispatch entry point → the
/// files allowed to make it (an owner ending in `/` covers a directory).
const KERNEL_OWNERS: &[(&str, &[&str])] = &[
    ("sum_weights_in(", &["crates/core/src/algorithms/dual.rs"]),
    ("target_prob(", &["crates/core/src/algorithms/loop_scan.rs"]),
    (
        "auto_select(",
        &[
            "crates/core/src/algorithms/",
            PIPELINE,
            "crates/core/src/engine.rs",
        ],
    ),
    ("arsp_loop_flat_engine(", LOOP_OWNERS),
    ("instance_order_from_scores(", LOOP_OWNERS),
    ("arsp_kdtt_flat_engine(", KDTT_OWNERS),
    ("arsp_bnb_engine(", BNB_OWNERS),
    ("build_instance_rtree(", BNB_OWNERS),
    ("arsp_dual_flat_engine(", DUAL_OWNERS),
    ("build_dual_index(", DUAL_OWNERS),
    ("MutationOp::Merge =>", &["crates/core/src/dynamic.rs"]),
];

/// One row of rule 5: every `pub fn` under `scope` whose name contains
/// `name_filter` must appear in a test under `tests/`.
struct ApiCoverage {
    /// Repo-relative source file or directory scanned for `pub fn`s.
    scope: &'static str,
    /// Only names containing this substring are checked (`""` = all).
    name_filter: &'static str,
    /// Require a call (`name(`) rather than any mention. Short names (`id`,
    /// `poll`, `drain`) would otherwise be satisfied by prose or by
    /// unrelated identifiers that merely contain them.
    require_call: bool,
    /// The suite a violation points the author at.
    suite: &'static str,
}

/// Rule 5 table.
const API_COVERAGE: &[ApiCoverage] = &[
    ApiCoverage {
        scope: "crates/core/src",
        name_filter: "flat_engine",
        require_call: false,
        suite: "tests/flat_engine_agreement.rs",
    },
    ApiCoverage {
        scope: "crates/core/src/standing.rs",
        name_filter: "",
        require_call: true,
        suite: "tests/standing_agreement.rs",
    },
];

/// Source roots scanned for rule 4 (and walked when loading files).
const SAFETY_ROOTS: &[&str] = &[
    "src",
    "tests",
    "crates",
    "xtask/src",
    "vendor/interleave/src",
    "vendor/rayon/src",
];

/// One finding; `file` is repo-relative, `line` 1-based.
#[derive(Debug, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Entry point for `cargo xtask lint`.
pub fn run() -> ExitCode {
    let root = repo_root();
    match lint_tree(&root) {
        Ok(violations) if violations.is_empty() => {
            eprintln!("xtask lint: ok");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask lint: {err}");
            ExitCode::FAILURE
        }
    }
}

fn repo_root() -> PathBuf {
    // xtask lives at <root>/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent directory")
        .to_path_buf()
}

/// Runs every rule over the tree rooted at `root`.
fn lint_tree(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();

    // Rules 1–2 over the façade-scoped modules.
    for rel in SYNC_SCOPE {
        let source = read(root, rel)?;
        let stripped = strip_code(&source);
        violations.extend(check_sync_facade(rel, &stripped));
        violations.extend(check_lock_unwrap(rel, &stripped));
    }

    // Rule 3 over the flat kernels.
    for (rel, kernels) in KERNEL_SCOPE {
        let source = read(root, rel)?;
        let stripped = strip_code(&source);
        violations.extend(check_kernel_purity(rel, &stripped, kernels));
    }

    // Rule 4 over every first-party source file.
    for dir in SAFETY_ROOTS {
        for path in rust_files(&root.join(dir)) {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let source = fs::read_to_string(&path).map_err(|e| format!("reading {rel}: {e}"))?;
            violations.extend(check_safety_comments(&rel, &source));
        }
    }

    // Rule 5: public API ↔ integration tests, one table row at a time.
    let mut tests_text = String::new();
    for path in rust_files(&root.join("tests")) {
        tests_text.push_str(
            &fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?,
        );
        tests_text.push('\n');
    }
    for row in API_COVERAGE {
        for path in rust_files(&root.join(row.scope)) {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let source = fs::read_to_string(&path).map_err(|e| format!("reading {rel}: {e}"))?;
            violations.extend(check_api_coverage(
                row,
                &rel,
                &strip_code(&source),
                &tests_text,
            ));
        }
    }

    // Rule 6: fail-point registry ↔ crash-suite kill matrices (raw
    // sources — the cross-referenced site names are string literals).
    let registry = read(root, FAILPOINT_REGISTRY)?;
    let mut write_paths = Vec::new();
    for rel in FAILPOINT_WRITE_PATHS {
        write_paths.push((*rel, read(root, rel)?));
    }
    let mut suites_text = String::new();
    for rel in CRASH_SUITES {
        suites_text.push_str(&read(root, rel)?);
        suites_text.push('\n');
    }
    violations.extend(check_failpoint_coverage(
        &registry,
        &write_paths,
        &suites_text,
    ));

    // Rule 7: typed errors and quarantine edges ↔ the test tree (raw
    // sources — the edges are string literals).
    let fault_source = read(root, QUERY_ERROR_FILE)?;
    let cluster_source = read(root, CLUSTER_FILE)?;
    violations.extend(check_supervisor_coverage(
        &fault_source,
        &cluster_source,
        &tests_text,
    ));

    // Rule 8: kernel calls stay in the files that own the kernel.
    for path in rust_files(&root.join(KERNEL_OWNER_SCOPE)) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&path).map_err(|e| format!("reading {rel}: {e}"))?;
        violations.extend(check_kernel_ownership(&rel, &strip_code(&source)));
    }

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

fn read(root: &Path, rel: &str) -> Result<String, String> {
    fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))
}

/// All `.rs` files under `dir`, recursively (empty when `dir` is absent);
/// a `.rs` file path yields itself.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    if dir.is_file() {
        return vec![dir.to_path_buf()];
    }
    let mut files = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return files;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

// ---------------------------------------------------------------------------
// Lexer: blank out comments and string/char literals, preserving layout
// ---------------------------------------------------------------------------

/// Returns `source` with comments (line, nested block) and string/char
/// literals replaced by spaces. Newlines survive, so byte offsets and line
/// numbers in the result match the original.
fn strip_code(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'r' if is_raw_string_start(bytes, i) => {
                // r"..." / r#"..."# / r##"..."## — skip to the matching
                // closer with the same hash count.
                let start = i;
                i += 1;
                let mut hashes = 0;
                while bytes.get(i) == Some(&b'#') {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                while let Some(&b) = bytes.get(i) {
                    if b == b'"' && (1..=hashes).all(|k| bytes.get(i + k) == Some(&b'#')) {
                        i += 1 + hashes;
                        break;
                    }
                    i += 1;
                }
                blank(&mut out, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        i += 2;
                    } else if bytes[i] == b'"' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            b'\'' if is_char_literal(bytes, i) => {
                let start = i;
                i += 1;
                if bytes.get(i) == Some(&b'\\') {
                    i += 2;
                    // \u{...} escapes run to the closing quote.
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
                i += 1; // closing quote
                blank(&mut out, start, i.min(bytes.len()));
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("blanking ASCII bytes keeps the source UTF-8")
}

fn blank(out: &mut [u8], from: usize, to: usize) {
    let to = to.min(out.len());
    for b in &mut out[from..to] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // `r"` or `r#...#"` beginning a raw string, not the tail of an
    // identifier (`for r in ..` has no quote after the `r`).
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Distinguishes `'x'` / `'\n'` char literals from `'a` lifetimes.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(&b'\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&b'\''),
        None => false,
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn line_of(text: &str, offset: usize) -> usize {
    text[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

// ---------------------------------------------------------------------------
// Rule 1: sync-facade
// ---------------------------------------------------------------------------

fn check_sync_facade(file: &str, stripped: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    for banned in SYNC_BANNED {
        let mut from = 0;
        while let Some(pos) = stripped[from..].find(banned) {
            let offset = from + pos;
            violations.push(Violation {
                file: file.to_string(),
                line: line_of(stripped, offset),
                rule: "sync-facade",
                message: format!(
                    "direct `{banned}` in a serving/reclamation module; go through \
                     the crate `sync` façade so the model checker can intercept it"
                ),
            });
            from = offset + banned.len();
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// Rule 2: lock-unwrap
// ---------------------------------------------------------------------------

fn check_lock_unwrap(file: &str, stripped: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (idx, line) in stripped.lines().enumerate() {
        let condensed: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        if condensed.contains(".unwrap()") {
            violations.push(Violation {
                file: file.to_string(),
                line: idx + 1,
                rule: "lock-unwrap",
                message: "`.unwrap()` in a serving/reclamation module; use the \
                          poisoning-aware `sync::lock` helper for locks, or `expect` \
                          with an invariant message"
                    .to_string(),
            });
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// Rule 3: kernel-purity
// ---------------------------------------------------------------------------

fn check_kernel_purity(file: &str, stripped: &str, kernels: &[&str]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for kernel in kernels {
        let Some((body_start, body_end)) = function_body(stripped, kernel) else {
            violations.push(Violation {
                file: file.to_string(),
                line: 1,
                rule: "kernel-purity",
                message: format!(
                    "watched kernel `fn {kernel}` not found; update the lint's \
                     KERNEL_SCOPE to follow the rename"
                ),
            });
            continue;
        };
        let body = &stripped[body_start..body_end];
        for banned in ["Instant::now", ".collect("] {
            let mut from = 0;
            while let Some(pos) = body[from..].find(banned) {
                let offset = body_start + from + pos;
                violations.push(Violation {
                    file: file.to_string(),
                    line: line_of(stripped, offset),
                    rule: "kernel-purity",
                    message: format!(
                        "`{banned}` inside flat kernel `{kernel}`: kernels must stay \
                         timing-free and allocation-free (use the scratch arenas)"
                    ),
                });
                from += pos + banned.len();
            }
        }
    }
    violations
}

/// Byte range of `fn name`'s body (between its outermost braces), matching
/// the name exactly (not as a prefix of a longer identifier).
fn function_body(stripped: &str, name: &str) -> Option<(usize, usize)> {
    let bytes = stripped.as_bytes();
    let needle = format!("fn {name}");
    let mut from = 0;
    while let Some(pos) = stripped[from..].find(&needle) {
        let start = from + pos;
        let after = start + needle.len();
        from = after;
        // Reject `fn foo_bar` when looking for `fn foo`.
        if bytes.get(after).copied().is_some_and(is_ident_byte) {
            continue;
        }
        let open = stripped[after..].find('{')? + after;
        let mut depth = 0usize;
        for (i, &b) in bytes.iter().enumerate().skip(open) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((open, i + 1));
                    }
                }
                _ => {}
            }
        }
        return None;
    }
    None
}

// ---------------------------------------------------------------------------
// Rule 4: safety-comments
// ---------------------------------------------------------------------------

fn check_safety_comments(file: &str, source: &str) -> Vec<Violation> {
    let stripped = strip_code(source);
    let original_lines: Vec<&str> = source.lines().collect();
    let mut violations = Vec::new();
    let bytes = stripped.as_bytes();
    let mut from = 0;
    while let Some(pos) = stripped[from..].find("unsafe") {
        let offset = from + pos;
        from = offset + "unsafe".len();
        let before_ok = offset == 0 || !is_ident_byte(bytes[offset - 1]);
        let after_ok = bytes
            .get(offset + "unsafe".len())
            .map_or(true, |&b| !is_ident_byte(b));
        if !(before_ok && after_ok) {
            continue; // part of `unsafe_code` or a similar identifier
        }
        let line = line_of(&stripped, offset);
        let documented = original_lines[line.saturating_sub(4)..line - 1]
            .iter()
            .any(|l| l.contains("SAFETY:"));
        if !documented {
            violations.push(Violation {
                file: file.to_string(),
                line,
                rule: "safety-comments",
                message: "`unsafe` without a `// SAFETY:` comment on the preceding \
                          lines stating the invariant that makes it sound"
                    .to_string(),
            });
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// Rule 5: api-coverage
// ---------------------------------------------------------------------------

fn check_api_coverage(
    row: &ApiCoverage,
    file: &str,
    stripped: &str,
    tests_text: &str,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (offset, name) in public_fns(stripped) {
        if !name.contains(row.name_filter) {
            continue;
        }
        let (needle, verb) = if row.require_call {
            (format!("{name}("), "called")
        } else {
            (name.clone(), "named")
        };
        if !tests_text.contains(&needle) {
            violations.push(Violation {
                file: file.to_string(),
                line: line_of(stripped, offset),
                rule: "api-coverage",
                message: format!(
                    "public `{name}` is not {verb} in any integration test under \
                     tests/; exercise it in {}",
                    row.suite
                ),
            });
        }
    }
    violations
}

/// `(offset, name)` of every `pub fn` in stripped source.
fn public_fns(stripped: &str) -> Vec<(usize, String)> {
    let bytes = stripped.as_bytes();
    let mut fns = Vec::new();
    let mut from = 0;
    while let Some(pos) = stripped[from..].find("pub fn ") {
        let offset = from + pos;
        let name_start = offset + "pub fn ".len();
        let name_end = bytes[name_start..]
            .iter()
            .position(|&b| !is_ident_byte(b))
            .map_or(bytes.len(), |p| name_start + p);
        if name_end > name_start {
            fns.push((offset, stripped[name_start..name_end].to_string()));
        }
        from = name_end;
    }
    fns
}

// ---------------------------------------------------------------------------
// Rule 6: failpoint-coverage
// ---------------------------------------------------------------------------

fn check_failpoint_coverage(
    registry_source: &str,
    write_paths: &[(&str, String)],
    suites_text: &str,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let sites = const_str_array(registry_source, "SITES");
    if sites.is_empty() {
        violations.push(Violation {
            file: FAILPOINT_REGISTRY.to_string(),
            line: 1,
            rule: "failpoint-coverage",
            message: "no `SITES` array with site literals found; update the lint's \
                      failpoint parser to follow the registry's shape"
                .to_string(),
        });
        return violations;
    }

    // Every registered site must be a quoted literal in some crash suite's
    // kill matrix.
    for (offset, site) in &sites {
        if !suites_text.contains(&format!("\"{site}\"")) {
            violations.push(Violation {
                file: FAILPOINT_REGISTRY.to_string(),
                line: line_of(registry_source, *offset),
                rule: "failpoint-coverage",
                message: format!(
                    "fail-point site `{site}` has no kill test: add it to a kill \
                     matrix in one of {CRASH_SUITES:?}"
                ),
            });
        }
    }

    // Every `hit("...")` on a write path must name a registered site (a
    // typo'd name would compile yet never fire).
    for (rel, source) in write_paths {
        for (offset, site) in hit_literals(source) {
            if !sites.iter().any(|(_, s)| *s == site) {
                violations.push(Violation {
                    file: (*rel).to_string(),
                    line: line_of(source, offset),
                    rule: "failpoint-coverage",
                    message: format!(
                        "`hit(\"{site}\")` names an unregistered fail-point site; \
                         register it in failpoint::SITES (and a kill matrix)"
                    ),
                });
            }
        }
    }
    violations
}

/// `(offset, contents)` of every string literal inside the bracketed array
/// initialiser of the named `const` in raw source (shared by the `SITES`
/// and `TRANSITION_EDGES` parsers).
fn const_str_array(source: &str, name: &str) -> Vec<(usize, String)> {
    let Some(decl) = source.find(name) else {
        return Vec::new();
    };
    // Seek past the `=` so the `[` of the `&[&str]` type annotation is not
    // mistaken for the array opener.
    let Some(eq_rel) = source[decl..].find('=') else {
        return Vec::new();
    };
    let assign = decl + eq_rel;
    let Some(open_rel) = source[assign..].find('[') else {
        return Vec::new();
    };
    let open = assign + open_rel;
    let close = source[open..].find(']').map_or(source.len(), |p| open + p);
    string_literals(&source[open..close])
        .into_iter()
        .map(|(off, name)| (open + off, name))
        .collect()
}

/// `(offset, name)` of the literal in every `hit("...")` call in raw source.
fn hit_literals(source: &str) -> Vec<(usize, String)> {
    let mut literals = Vec::new();
    let mut from = 0;
    while let Some(pos) = source[from..].find("hit(\"") {
        let offset = from + pos;
        let rest = &source[offset + "hit(\"".len()..];
        match rest.find('"') {
            Some(end) => {
                literals.push((offset, rest[..end].to_string()));
                from = offset + "hit(\"".len() + end + 1;
            }
            None => break,
        }
    }
    literals
}

// ---------------------------------------------------------------------------
// Rule 7: supervisor-coverage
// ---------------------------------------------------------------------------

fn check_supervisor_coverage(
    fault_source: &str,
    cluster_source: &str,
    tests_text: &str,
) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Every typed query error must be exercised by name somewhere in the
    // integration-test tree.
    let variants = enum_variants(&strip_code(fault_source), "QueryError");
    if variants.is_empty() {
        violations.push(Violation {
            file: QUERY_ERROR_FILE.to_string(),
            line: 1,
            rule: "supervisor-coverage",
            message: "no `enum QueryError` variants found; update the lint's enum \
                      parser to follow the fault module's shape"
                .to_string(),
        });
    }
    for (offset, variant) in &variants {
        if !tests_text.contains(variant.as_str()) {
            violations.push(Violation {
                file: QUERY_ERROR_FILE.to_string(),
                line: line_of(fault_source, *offset),
                rule: "supervisor-coverage",
                message: format!(
                    "`QueryError::{variant}` is not named in any test under tests/; \
                     a typed error nobody can trigger in a test is either untested \
                     or dead"
                ),
            });
        }
    }

    // Every quarantine-machine edge must be pinned by a test naming its
    // literal (the state-machine walk in tests/shard_agreement.rs).
    let edges = const_str_array(cluster_source, "TRANSITION_EDGES");
    if edges.is_empty() {
        violations.push(Violation {
            file: CLUSTER_FILE.to_string(),
            line: 1,
            rule: "supervisor-coverage",
            message: "no `TRANSITION_EDGES` array with edge literals found; update \
                      the lint's parser to follow the cluster module's shape"
                .to_string(),
        });
    }
    for (offset, edge) in &edges {
        if !tests_text.contains(&format!("\"{edge}\"")) {
            violations.push(Violation {
                file: CLUSTER_FILE.to_string(),
                line: line_of(cluster_source, *offset),
                rule: "supervisor-coverage",
                message: format!(
                    "quarantine edge `{edge}` is not named in any test under \
                     tests/; add it to the state-machine walk in \
                     tests/shard_agreement.rs"
                ),
            });
        }
    }
    violations
}

/// `(offset, name)` of every variant of `enum <name>` in stripped source.
/// Variants are identifiers at brace depth 1 (relative to the enum body)
/// outside parens/brackets, right after the opening brace, a `,`, or a
/// struct-variant's closing `}` — which skips field names (depth 2),
/// attribute arguments (bracket depth ≥ 1), and tuple payloads (paren
/// depth ≥ 1).
fn enum_variants(stripped: &str, name: &str) -> Vec<(usize, String)> {
    let needle = format!("enum {name}");
    let Some(decl) = stripped.find(&needle) else {
        return Vec::new();
    };
    let Some(open_rel) = stripped[decl..].find('{') else {
        return Vec::new();
    };
    let open = decl + open_rel;
    let bytes = stripped.as_bytes();
    let mut variants = Vec::new();
    let (mut brace, mut paren, mut bracket) = (0usize, 0usize, 0usize);
    let mut expecting = false;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                brace += 1;
                expecting = brace == 1;
            }
            b'}' => {
                brace -= 1;
                if brace == 0 {
                    break;
                }
                expecting = brace == 1;
            }
            b',' if brace == 1 && paren == 0 && bracket == 0 => expecting = true,
            b'(' => paren += 1,
            b')' => paren = paren.saturating_sub(1),
            b'[' => bracket += 1,
            b']' => bracket = bracket.saturating_sub(1),
            b if expecting
                && brace == 1
                && paren == 0
                && bracket == 0
                && b.is_ascii_uppercase() =>
            {
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                variants.push((start, stripped[start..i].to_string()));
                expecting = false;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

// ---------------------------------------------------------------------------
// Rule 8: kernel-ownership
// ---------------------------------------------------------------------------

fn check_kernel_ownership(file: &str, stripped: &str) -> Vec<Violation> {
    let bytes = stripped.as_bytes();
    let mut violations = Vec::new();
    for (call, owners) in KERNEL_OWNERS {
        let owns =
            |owner: &&str| *owner == file || (owner.ends_with('/') && file.starts_with(*owner));
        if owners.iter().any(owns) {
            continue;
        }
        let mut from = 0;
        while let Some(pos) = stripped[from..].find(call) {
            let offset = from + pos;
            from = offset + call.len();
            // `my_target_prob(` is another function, not the kernel.
            if offset > 0 && is_ident_byte(bytes[offset - 1]) {
                continue;
            }
            violations.push(Violation {
                file: file.to_string(),
                line: line_of(stripped, offset),
                rule: "kernel-ownership",
                message: format!(
                    "`{call}` outside its owners {owners:?}: run queries through \
                     the pipeline, kernels through their flat engine and mutation \
                     batches through `DynamicArspEngine::apply` instead of copying \
                     the dispatch or the fold"
                ),
            });
        }
    }
    violations
}

/// `(offset, contents)` of every plain `"..."` literal in `text` (no escape
/// handling — fail-point site names are bare dotted identifiers).
fn string_literals(text: &str) -> Vec<(usize, String)> {
    let mut literals = Vec::new();
    let mut rest = text;
    let mut base = 0;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(len) = after.find('"') else { break };
        literals.push((base + start, after[..len].to_string()));
        let consumed = start + 1 + len + 1;
        base += consumed;
        rest = &rest[consumed..];
    }
    literals
}

// ---------------------------------------------------------------------------
// Fixture tests: each rule must fire on a violating snippet and stay quiet
// on the idiomatic one.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_blanks_comments_and_strings_but_keeps_layout() {
        let src = "let a = 1; // std::sync::Mutex in a comment\n\
                   let b = \"std::sync::Mutex in a string\";\n\
                   /* block\nstd::sync::Mutex\n*/ let c = 'x';\n\
                   let d = r#\"raw std::sync::Mutex\"#;\n";
        let stripped = strip_code(src);
        assert!(!stripped.contains("std::sync::Mutex"));
        assert_eq!(stripped.lines().count(), src.lines().count());
        assert!(stripped.contains("let a = 1;"));
        assert!(stripped.contains("let d ="));
    }

    #[test]
    fn lexer_keeps_lifetimes_but_blanks_char_literals() {
        let stripped = strip_code("fn f<'a>(x: &'a str) -> char { 'y' }");
        assert!(stripped.contains("<'a>"), "lifetime was eaten: {stripped}");
        assert!(!stripped.contains("'y'"));
    }

    #[test]
    fn sync_facade_fires_on_direct_std_and_passes_the_facade() {
        let bad = strip_code("use std::sync::Mutex;\nuse std::sync::atomic::AtomicU64;\n");
        let violations = check_sync_facade("f.rs", &bad);
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].line, 1);
        assert_eq!(violations[1].line, 2);

        let good = strip_code(
            "use crate::sync::{lock, Arc, Mutex};\nuse crate::sync::atomic::AtomicU64;\n\
             use std::sync::Barrier; // allowed: test start-line gate\n",
        );
        assert!(check_sync_facade("f.rs", &good).is_empty());
    }

    #[test]
    fn sync_facade_fires_on_a_direct_thread_spawn_and_passes_the_facade() {
        let bad = strip_code(
            "let t: std::thread::JoinHandle<()> =\n    std::thread::spawn(move || work());\n",
        );
        let violations = check_sync_facade("f.rs", &bad);
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].line, 2);
        assert_eq!(violations[1].line, 1);

        let good = strip_code(
            "let t: thread::JoinHandle<()> = crate::sync::thread::spawn(move || work());\n\
             std::thread::sleep(interval);\n",
        );
        assert!(check_sync_facade("f.rs", &good).is_empty());
    }

    #[test]
    fn lock_unwrap_fires_on_unwrap_and_passes_expect_and_unwrap_or_else() {
        let bad = strip_code("let g = self.inner.lock().unwrap();\nlet v = row . unwrap () ;\n");
        let violations = check_lock_unwrap("f.rs", &bad);
        assert_eq!(violations.len(), 2);

        let good = strip_code(
            "let g = lock(&self.inner);\n\
             let v = row.expect(\"handle taken from a live row\");\n\
             let w = m.get_mut().unwrap_or_else(|p| p.into_inner());\n",
        );
        assert!(check_lock_unwrap("f.rs", &good).is_empty());
    }

    #[test]
    fn kernel_purity_fires_inside_watched_kernels_only() {
        let src = strip_code(
            "fn flat_sky_add(x: u64) { let t = Instant::now(); }\n\
             fn unwatched() { let v: Vec<u64> = it.collect(); }\n",
        );
        let violations = check_kernel_purity("f.rs", &src, &["flat_sky_add"]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("Instant::now"));

        let clean = strip_code("fn flat_sky_add(x: u64) -> u64 { x + 1 }\n");
        assert!(check_kernel_purity("f.rs", &clean, &["flat_sky_add"]).is_empty());
    }

    #[test]
    fn kernel_purity_fires_on_collect_and_matches_names_exactly() {
        let src = strip_code(
            "fn node_pass_par() { let v: Vec<u64> = it.collect(); }\n\
             fn node_pass() { let y = 1; }\n",
        );
        // `node_pass` is clean; `node_pass_par` must NOT be matched when
        // looking for `node_pass`.
        assert!(check_kernel_purity("f.rs", &src, &["node_pass"]).is_empty());

        let bad = strip_code("fn node_pass() { let v: Vec<u64> = it.collect(); }\n");
        let violations = check_kernel_purity("f.rs", &bad, &["node_pass"]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains(".collect"));
    }

    #[test]
    fn kernel_purity_reports_a_vanished_kernel() {
        let violations = check_kernel_purity("f.rs", "fn other() {}", &["flat_sky_add"]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("not found"));
    }

    #[test]
    fn safety_comments_fire_without_a_safety_comment() {
        let bad = "fn f() {\n    unsafe { do_thing() }\n}\n";
        let violations = check_safety_comments("f.rs", bad);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].line, 2);

        let good = "fn f() {\n    // SAFETY: the pointer outlives the call.\n    unsafe { do_thing() }\n}\n";
        assert!(check_safety_comments("f.rs", good).is_empty());
    }

    #[test]
    fn safety_comments_ignore_the_unsafe_code_lint_name_and_comments() {
        let src = "#![deny(unsafe_code)]\n// mentioning unsafe in a comment is fine\n";
        assert!(check_safety_comments("f.rs", src).is_empty());
    }

    /// The rule-5 table row whose scope is `scope`.
    fn api_row(scope: &str) -> &'static ApiCoverage {
        API_COVERAGE
            .iter()
            .find(|row| row.scope == scope)
            .expect("API_COVERAGE has a row for this scope")
    }

    #[test]
    fn api_coverage_flat_engine_row_requires_a_test_mention() {
        let row = api_row("crates/core/src");
        let core = strip_code("pub fn demo_flat_engine(x: u64) -> u64 { x }\n");
        let violations = check_api_coverage(row, "f.rs", &core, "fn other_test() {}");
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "api-coverage");
        assert!(violations[0].message.contains("demo_flat_engine"));
        assert!(violations[0]
            .message
            .contains("tests/flat_engine_agreement.rs"));

        // A mention satisfies the row; it need not be a call.
        let mentioned = "use arsp_core::demo_flat_engine;";
        assert!(check_api_coverage(row, "f.rs", &core, mentioned).is_empty());

        // Private helpers and names outside the filter are out of scope.
        let private = strip_code("fn helper_flat_engine() {}\npub fn not_flat() {}\n");
        assert!(check_api_coverage(row, "f.rs", &private, "").is_empty());
    }

    #[test]
    fn api_coverage_standing_row_requires_a_test_call() {
        let row = api_row("crates/core/src/standing.rs");
        let standing = strip_code(
            "impl SubscriptionGuard {\n    pub fn poll(&self) -> Option<ChangeBatch> { None }\n}\n",
        );
        let violations = check_api_coverage(row, "s.rs", &standing, "fn other_test() {}");
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "api-coverage");
        assert!(violations[0].message.contains("`poll`"));
        assert!(violations[0]
            .message
            .contains("tests/standing_agreement.rs"));

        // A call — `poll(` — satisfies the row; a bare mention does not.
        assert!(check_api_coverage(row, "s.rs", &standing, "let b = sub.poll();").is_empty());
        let violations = check_api_coverage(row, "s.rs", &standing, "// we should poll the feed");
        assert_eq!(violations.len(), 1);

        // Private and crate-visible functions are out of scope.
        let scoped = strip_code(
            "fn diff_maintained() {}\npub(crate) fn refresh(&self) {}\npub fn drain(&self) {}\n",
        );
        let violations = check_api_coverage(row, "s.rs", &scoped, "guard.drain();");
        assert!(violations.is_empty(), "{violations:?}");
    }

    const REGISTRY_FIXTURE: &str =
        "pub const SITES: &[&str] = &[\n    \"wal.append\",\n    \"snapshot.rename\",\n];\n";

    #[test]
    fn failpoint_sites_are_parsed_from_the_raw_registry() {
        let sites: Vec<String> = const_str_array(REGISTRY_FIXTURE, "SITES")
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        assert_eq!(sites, ["wal.append", "snapshot.rename"]);
        assert!(const_str_array("fn no_sites() {}", "SITES").is_empty());
    }

    #[test]
    fn failpoint_coverage_fires_on_an_untested_site() {
        let suites = "const CRASH_MATRIX: &[&str] = &[\"wal.append\"];\n";
        let violations = check_failpoint_coverage(REGISTRY_FIXTURE, &[], suites);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("snapshot.rename"));
        assert_eq!(violations[0].line, 3);
    }

    #[test]
    fn failpoint_coverage_fires_on_an_unregistered_hit() {
        let suites = "&[\"wal.append\", \"snapshot.rename\"]";
        let write_path = "failpoint::hit(\"wal.append\")?;\nfailpoint::hit(\"wal.typo\")?;\n";
        let violations = check_failpoint_coverage(
            REGISTRY_FIXTURE,
            &[("w.rs", write_path.to_string())],
            suites,
        );
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("wal.typo"));
        assert_eq!(violations[0].file, "w.rs");
        assert_eq!(violations[0].line, 2);
    }

    #[test]
    fn failpoint_coverage_passes_a_consistent_tree_and_flags_a_shapeless_registry() {
        // The two kill matrices together cover the registry; each write
        // path's hits resolve.
        let suites = "&[\"wal.append\"]\n&[\"snapshot.rename\"]";
        let write_paths = [
            (
                "a.rs",
                "failpoint::hit(\"snapshot.rename\")?;\n".to_string(),
            ),
            ("b.rs", "failpoint::hit(\"wal.append\")?;\n".to_string()),
        ];
        assert!(check_failpoint_coverage(REGISTRY_FIXTURE, &write_paths, suites).is_empty());

        let violations = check_failpoint_coverage("fn no_sites() {}", &write_paths, suites);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("no `SITES` array"));
    }

    const FAULT_FIXTURE: &str = "pub enum QueryError {\n\
         \x20   DeadlineExceeded { elapsed: Duration, budget: Duration },\n\
         \x20   Panicked(String),\n\
         \x20   ShardUnavailable { shards_missing: Vec<usize> },\n\
         }\n";

    const CLUSTER_FIXTURE: &str =
        "pub const TRANSITION_EDGES: &[&str] = &[\n    \"healthy->degraded\",\n    \
         \"degraded->healthy\",\n];\n";

    #[test]
    fn enum_variants_skip_fields_and_payloads() {
        let variants: Vec<String> = enum_variants(&strip_code(FAULT_FIXTURE), "QueryError")
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert_eq!(
            variants,
            ["DeadlineExceeded", "Panicked", "ShardUnavailable"],
            "field names, payload types or attribute args leaked in"
        );
        assert!(enum_variants("fn not_an_enum() {}", "QueryError").is_empty());
    }

    #[test]
    fn supervisor_coverage_fires_on_an_untested_variant_and_edge() {
        let tests = "fn t() { let _ = QueryError::DeadlineExceeded; \
                     assert_eq!(e, \"healthy->degraded\"); Panicked; }";
        let violations = check_supervisor_coverage(FAULT_FIXTURE, CLUSTER_FIXTURE, tests);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].message.contains("ShardUnavailable"));
        assert!(violations[1].message.contains("degraded->healthy"));
    }

    #[test]
    fn supervisor_coverage_passes_full_coverage_and_reports_vanished_shapes() {
        let tests = "DeadlineExceeded Panicked ShardUnavailable \
                     \"healthy->degraded\" \"degraded->healthy\"";
        assert!(check_supervisor_coverage(FAULT_FIXTURE, CLUSTER_FIXTURE, tests).is_empty());

        // A refactor that renames the enum or the edge array must surface
        // as a parser-shape violation, never as silent non-coverage.
        let violations = check_supervisor_coverage("enum Renamed {}", CLUSTER_FIXTURE, tests);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("no `enum QueryError`"));
        let violations = check_supervisor_coverage(FAULT_FIXTURE, "const EDGES: u8 = 0;", tests);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("no `TRANSITION_EDGES`"));
    }

    #[test]
    fn kernel_ownership_fires_outside_the_owning_files() {
        let copy = strip_code(
            "fn dual_row_prob() {\n    let s = tree.sum_weights_in(&region);\n}\n\
             fn scan() { let p = layout.target_prob(pos, work, &mut t); }\n",
        );
        let violations = check_kernel_ownership("crates/core/src/dynamic.rs", &copy);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert_eq!(violations[0].rule, "kernel-ownership");
        assert_eq!(violations[0].line, 2);
        assert!(violations[0].message.contains("sum_weights_in("));
        assert_eq!(violations[1].line, 4);
        assert!(violations[1].message.contains("target_prob("));
    }

    #[test]
    fn kernel_ownership_passes_owners_comments_and_longer_names() {
        let dual = strip_code("let s = tree.sum_weights_in(&region);\n");
        assert!(check_kernel_ownership("crates/core/src/algorithms/dual.rs", &dual).is_empty());
        let lp = strip_code("let p = scan.target_prob(pos, work, &mut t);\n");
        assert!(check_kernel_ownership("crates/core/src/algorithms/loop_scan.rs", &lp).is_empty());
        // DUAL's calls are not LOOP's owners' to make, and vice versa.
        assert_eq!(
            check_kernel_ownership("crates/core/src/algorithms/loop_scan.rs", &dual).len(),
            1
        );
        assert_eq!(
            check_kernel_ownership("crates/core/src/standing.rs", &lp).len(),
            1
        );
        let other = strip_code(
            "// the kernel: tree.sum_weights_in(&region)\n\
             let m = \"target_prob(\";\n\
             fn my_target_prob(x: u64) -> u64 { x }\n",
        );
        assert!(check_kernel_ownership("crates/core/src/dynamic.rs", &other).is_empty());
    }

    /// A dispatch row fires in every query front not among `owners` and in
    /// each of `outside`, and passes in the pipeline and in each of
    /// `owners`.
    fn assert_dispatch_row(call: &str, owners: &[&str], outside: &[&str]) {
        let copy = strip_code(&format!("fn run() {{\n    let r = {call}a, b);\n}}\n"));
        let fronts = [
            "crates/core/src/dynamic.rs",
            "crates/core/src/service.rs",
            "crates/core/src/engine.rs",
            "crates/core/src/cluster.rs",
        ];
        for file in fronts
            .into_iter()
            .filter(|front| !owners.contains(front))
            .chain(outside.iter().copied())
        {
            let violations = check_kernel_ownership(file, &copy);
            assert_eq!(violations.len(), 1, "{file}: {violations:?}");
            assert_eq!(violations[0].line, 2);
            assert!(violations[0].message.contains(call));
        }
        for owner in std::iter::once(PIPELINE).chain(owners.iter().copied()) {
            assert!(check_kernel_ownership(owner, &copy).is_empty(), "{owner}");
        }
        // A longer name that ends in the call is another function.
        let longer = strip_code(&format!("let r = my_{call}a);\n"));
        assert!(check_kernel_ownership("crates/core/src/dynamic.rs", &longer).is_empty());
    }

    /// A kernel entry or artifact builder row: it passes only in `owner` and
    /// the pipeline, and fires in every other algorithm module.
    fn assert_entry_row(call: &str, owner: &str) {
        let others: Vec<&str> = [
            "crates/core/src/algorithms/mod.rs",
            "crates/core/src/algorithms/loop_scan.rs",
            "crates/core/src/algorithms/kdtt.rs",
            "crates/core/src/algorithms/kd_asp.rs",
            "crates/core/src/algorithms/bnb.rs",
            "crates/core/src/algorithms/dual.rs",
        ]
        .into_iter()
        .filter(|module| *module != owner)
        .collect();
        assert_dispatch_row(call, &[owner], &others);
    }

    #[test]
    fn kernel_ownership_keeps_mutation_dispatch_in_the_dynamic_engine() {
        let copy = strip_code(
            "fn replay_on_writer(writer: &mut ServiceWriter, op: &MutationOp) {\n\
             \x20   match op {\n\
             \x20       MutationOp::Merge => writer.merge_now(),\n\
             \x20       _ => {}\n\
             \x20   }\n\
             }\n",
        );
        let violations = check_kernel_ownership("crates/core/src/cluster.rs", &copy);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].line, 3);
        assert!(violations[0].message.contains("MutationOp::Merge =>"));
        assert!(check_kernel_ownership("crates/core/src/dynamic.rs", &copy).is_empty());
        // Building or matching the op without dispatching on it is fine.
        let other =
            strip_code("let ops = vec![MutationOp::Merge];\nif op == MutationOp::Merge {}\n");
        assert!(check_kernel_ownership("crates/core/src/cluster.rs", &other).is_empty());
    }

    #[test]
    fn kernel_ownership_keeps_auto_select_in_the_pipeline() {
        assert_dispatch_row(
            "auto_select(",
            &[
                "crates/core/src/engine.rs",
                "crates/core/src/algorithms/kdtt.rs",
                "crates/core/src/algorithms/mod.rs",
            ],
            &[],
        );
    }

    #[test]
    fn kernel_ownership_keeps_the_loop_entry_in_the_pipeline() {
        assert_entry_row(
            "arsp_loop_flat_engine(",
            "crates/core/src/algorithms/loop_scan.rs",
        );
    }

    #[test]
    fn kernel_ownership_keeps_the_kdtt_entry_in_the_pipeline() {
        assert_entry_row(
            "arsp_kdtt_flat_engine(",
            "crates/core/src/algorithms/kdtt.rs",
        );
    }

    #[test]
    fn kernel_ownership_keeps_the_bnb_entry_in_the_pipeline() {
        assert_entry_row("arsp_bnb_engine(", "crates/core/src/algorithms/bnb.rs");
    }

    #[test]
    fn kernel_ownership_keeps_the_dual_entry_in_the_pipeline() {
        assert_entry_row(
            "arsp_dual_flat_engine(",
            "crates/core/src/algorithms/dual.rs",
        );
    }

    #[test]
    fn kernel_ownership_keeps_the_rtree_build_in_the_pipeline() {
        assert_entry_row("build_instance_rtree(", "crates/core/src/algorithms/bnb.rs");
    }

    #[test]
    fn kernel_ownership_keeps_the_dual_index_build_in_the_pipeline() {
        assert_entry_row("build_dual_index(", "crates/core/src/algorithms/dual.rs");
    }

    #[test]
    fn kernel_ownership_keeps_the_order_build_in_the_pipeline() {
        assert_entry_row(
            "instance_order_from_scores(",
            "crates/core/src/algorithms/loop_scan.rs",
        );
    }

    #[test]
    fn kernel_ownership_fires_on_a_second_artifact_path_in_another_kernel() {
        // A one-shot DUAL setup that runs the kd kernel itself, beside the
        // pipeline.
        let copy = strip_code(
            "pub fn arsp_dual(dataset: &UncertainDataset) -> ArspResult {\n\
             \x20   let flat = FlatStore::from_dataset(dataset);\n\
             \x20   arsp_kdtt_flat_engine(&flat, &scores, variant, false, None, &mut s, None, None)\n\
             }\n",
        );
        let violations = check_kernel_ownership("crates/core/src/algorithms/dual.rs", &copy);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].line, 3);
        assert!(violations[0].message.contains("arsp_kdtt_flat_engine("));
        assert!(check_kernel_ownership("crates/core/src/algorithms/kdtt.rs", &copy).is_empty());
    }

    #[test]
    fn the_repository_tree_is_clean() {
        let root = repo_root();
        let violations = lint_tree(&root).expect("lint walks the tree");
        assert!(
            violations.is_empty(),
            "lint violations in the tree:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
