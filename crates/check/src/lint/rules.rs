//! The workspace lint rules and their allowlist.
//!
//! Each rule is a pure function from a [`SourceFile`] to findings; the
//! driver in [`super`] applies the [`ALLOWLIST`] afterwards. Rules match
//! against comment/string-stripped lines (except where raw text is the
//! point, e.g. locating `// SAFETY:` comments), so prose never trips a
//! rule and rule pattern strings never trip the linter on itself.

use super::{contains_word, Allow, Finding, SourceFile};

/// A named lint rule.
pub struct Rule {
    /// Kebab-case identifier used in findings and allowlist entries.
    pub name: &'static str,
    /// One-line statement of the contract the rule enforces.
    pub summary: &'static str,
    /// The checker.
    pub check: fn(&SourceFile) -> Vec<Finding>,
}

/// All rules, in the order they run.
pub fn all_rules() -> &'static [Rule] {
    &[
        Rule {
            name: "forbid-unsafe-crate",
            summary: "every crate root forbids unsafe_code (draid-ec: \
                      cfg-gated forbid + deny(unsafe_op_in_unsafe_fn))",
            check: forbid_unsafe_crate,
        },
        Rule {
            name: "unsafe-confined",
            summary: "the unsafe keyword appears only in crates/ec/src/kernels.rs",
            check: unsafe_confined,
        },
        Rule {
            name: "safety-comment",
            summary: "every unsafe block in the SIMD kernels is preceded by \
                      a SAFETY comment and feature-gated",
            check: safety_comment,
        },
        Rule {
            name: "no-wall-clock",
            summary: "simulation crates never read wall clocks or OS randomness",
            check: no_wall_clock,
        },
        Rule {
            name: "no-unordered-iter",
            summary: "simulation crates never iterate HashMap/HashSet \
                      (hash order would leak into event order and stats)",
            check: no_unordered_iter,
        },
        Rule {
            name: "no-op-path-unwrap",
            summary: "op-path modules use expect(\"why\") or ?, never bare unwrap()",
            check: no_op_path_unwrap,
        },
    ]
}

/// The deterministic-simulation crates: everything that schedules events
/// or feeds the stats plane.
const SIM_CRATES: &[&str] = &[
    "crates/sim/src/",
    "crates/net/src/",
    "crates/block/src/",
    "crates/core/src/",
];

fn in_sim_scope(path: &str) -> bool {
    SIM_CRATES.iter().any(|p| path.starts_with(p))
}

/// The one file allowed to contain `unsafe` (SIMD kernels).
const UNSAFE_HOME: &str = "crates/ec/src/kernels.rs";

// ---------------------------------------------------------------- rule 1

/// Crate roots must pin the crate-wide unsafe policy. `draid-ec` is the
/// sanctioned exception: it forbids unsafe without the `simd` feature and
/// under `simd` still denies it outside the explicitly allowed kernels
/// module, with `unsafe_op_in_unsafe_fn` denied so every unsafe operation
/// sits in an explicit block.
fn forbid_unsafe_crate(file: &SourceFile) -> Vec<Finding> {
    if !file.path.ends_with("src/lib.rs") {
        return Vec::new();
    }
    let mut out = Vec::new();
    let required: &[&str] = if file.path == "crates/ec/src/lib.rs" {
        &[
            "#![cfg_attr(not(feature = \"simd\"), forbid(unsafe_code))]",
            "#![deny(unsafe_code)]",
            "#![deny(unsafe_op_in_unsafe_fn)]",
        ]
    } else {
        &["#![forbid(unsafe_code)]"]
    };
    for attr in required {
        if !file.text.contains(attr) {
            out.push(Finding {
                rule: "forbid-unsafe-crate",
                path: file.path.clone(),
                line: 0,
                message: format!("crate root is missing `{attr}`"),
            });
        }
    }
    out
}

// ---------------------------------------------------------------- rule 2

/// `unsafe` (the keyword, not `unsafe_code` in attributes) is confined to
/// the SIMD kernels file. String/comment contents are already stripped,
/// so prose and lint patterns do not count.
fn unsafe_confined(file: &SourceFile) -> Vec<Finding> {
    if file.path == UNSAFE_HOME {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in file.code_lines().iter().enumerate() {
        if contains_word(line, "unsafe") {
            out.push(Finding {
                rule: "unsafe-confined",
                path: file.path.clone(),
                line: i + 1,
                message: format!(
                    "`unsafe` outside {UNSAFE_HOME}; keep kernels there or fix the code"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------- rule 3

/// How far above an `unsafe` token a SAFETY comment may sit (covers a
/// multi-line function signature between the comment and the block).
const SAFETY_LOOKBACK: usize = 12;

/// Inside the kernels file, every line containing the `unsafe` keyword
/// must have a `SAFETY` comment on the same line or within the preceding
/// [`SAFETY_LOOKBACK`] raw lines, and the file must gate its SIMD module
/// on the `simd` feature.
fn safety_comment(file: &SourceFile) -> Vec<Finding> {
    if file.path != UNSAFE_HOME {
        return Vec::new();
    }
    let mut out = Vec::new();
    let raw: Vec<&str> = file.raw_lines().collect();
    let mut any_unsafe = false;
    for (i, line) in file.code_lines().iter().enumerate() {
        if !contains_word(line, "unsafe") {
            continue;
        }
        any_unsafe = true;
        let lo = i.saturating_sub(SAFETY_LOOKBACK);
        let justified = raw[lo..=i].iter().any(|l| l.contains("SAFETY"));
        if !justified {
            out.push(Finding {
                rule: "safety-comment",
                path: file.path.clone(),
                line: i + 1,
                message: format!(
                    "`unsafe` without a // SAFETY: comment within {SAFETY_LOOKBACK} lines"
                ),
            });
        }
    }
    if any_unsafe && !file.text.contains("feature = \"simd\"") {
        out.push(Finding {
            rule: "safety-comment",
            path: file.path.clone(),
            line: 0,
            message: "kernels contain `unsafe` but no `feature = \"simd\"` gate".to_string(),
        });
    }
    out
}

// ---------------------------------------------------------------- rule 4

/// Wall-clock and OS-randomness constructs that would make simulated runs
/// irreproducible. `std::time::Duration` is fine (a value type); reading
/// host time or entropy is not.
const WALL_CLOCK_NEEDLES: &[&str] = &[
    "std::time::Instant",
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

fn no_wall_clock(file: &SourceFile) -> Vec<Finding> {
    if !in_sim_scope(&file.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in file.code_lines().iter().enumerate() {
        for needle in WALL_CLOCK_NEEDLES {
            if line.contains(needle) {
                out.push(Finding {
                    rule: "no-wall-clock",
                    path: file.path.clone(),
                    line: i + 1,
                    message: format!("`{needle}` in a simulation crate; use SimTime / DetRng"),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------- rule 5

/// Iteration adapters whose visit order is the hasher's.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

/// Finds identifiers declared as `HashMap`/`HashSet` in this file, then
/// flags any iteration over them: hash order is nondeterministic across
/// runs, so it must never feed event scheduling or stats serialization.
/// Keyed access (`get`/`insert`/`remove`/`contains_key`) stays legal.
///
/// Known blind spot (lexical analysis): a type alias such as
/// `type Table = HashMap<…>` hides the container type from this rule; the
/// workspace has none, and `forbid-unsafe-crate`-style review applies to
/// new ones.
fn no_unordered_iter(file: &SourceFile) -> Vec<Finding> {
    if !in_sim_scope(&file.path) {
        return Vec::new();
    }
    let lines = file.code_lines();
    let mut idents: Vec<String> = Vec::new();
    for line in lines {
        for container in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = line[from..].find(container) {
                let at = from + pos;
                if let Some(name) = declared_ident_before(&line[..at]) {
                    if !idents.contains(&name) {
                        idents.push(name);
                    }
                }
                from = at + container.len();
            }
        }
    }
    if idents.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        for ident in &idents {
            let iterated = ITER_METHODS.iter().any(|m| {
                let pat = format!("{ident}{m}");
                line.contains(&pat) && boundary_before(line, &pat)
            }) || for_loop_over(line, ident);
            if iterated {
                out.push(Finding {
                    rule: "no-unordered-iter",
                    path: file.path.clone(),
                    line: i + 1,
                    message: format!(
                        "iterating hash-ordered `{ident}`; use BTreeMap/BTreeSet \
                         or collect+sort first"
                    ),
                });
            }
        }
    }
    out
}

/// For `… name: HashMap<` / `let [mut] name = HashMap::` / `let name:
/// HashMap<` shapes, recovers `name` from the text preceding the
/// container token.
fn declared_ident_before(prefix: &str) -> Option<String> {
    let trimmed = prefix.trim_end();
    // `name: HashMap<` (field, binding annotation, fn param)
    // `name = HashMap::new()` (inferred binding)
    let trimmed = trimmed
        .strip_suffix(':')
        .or_else(|| trimmed.strip_suffix('=').map(|t| t.trim_end()))?;
    let name: String = trimmed
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

/// Word-boundary check for the char before a `name.method()` hit.
fn boundary_before(line: &str, pat: &str) -> bool {
    line.find(pat).is_some_and(|at| {
        at == 0 || {
            let b = line.as_bytes()[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        }
    })
}

/// `for x in [&[mut ]]ident`-style loops over the container itself.
fn for_loop_over(line: &str, ident: &str) -> bool {
    let Some(for_at) = find_for_in(line) else {
        return false;
    };
    let tail = &line[for_at..];
    let tail = tail.trim_start_matches(['&', ' ']);
    let tail = tail.strip_prefix("mut ").unwrap_or(tail);
    tail.strip_prefix("self.")
        .unwrap_or(tail)
        .strip_prefix(ident)
        .is_some_and(|rest| {
            rest.is_empty()
                || rest.starts_with(' ')
                || rest.starts_with('{')
                || rest.starts_with('.')
        })
}

/// Byte offset just past the `in` of a `for … in ` construct.
fn find_for_in(line: &str) -> Option<usize> {
    let for_at = super::find_word(line, "for")?;
    let in_at = super::find_word(&line[for_at..], "in")?;
    Some(for_at + in_at + "in ".len())
}

// ---------------------------------------------------------------- rule 6

/// Op-path modules where a panic tears down the whole simulated array.
const OP_PATH_FILES: &[&str] = &["crates/core/src/exec.rs", "crates/core/src/builders.rs"];

/// Bare `.unwrap()` on the op path hides the violated invariant; the
/// contract is `expect("…invariant…")` (self-documenting) or `?`.
/// Test modules (from `#[cfg(test)]` down) are exempt.
fn no_op_path_unwrap(file: &SourceFile) -> Vec<Finding> {
    if !OP_PATH_FILES.contains(&file.path.as_str()) {
        return Vec::new();
    }
    let stop = file.test_region_start().unwrap_or(usize::MAX);
    let mut out = Vec::new();
    for (i, line) in file.code_lines().iter().enumerate() {
        if i + 1 >= stop {
            break;
        }
        if line.contains(".unwrap()") {
            out.push(Finding {
                rule: "no-op-path-unwrap",
                path: file.path.clone(),
                line: i + 1,
                message: "bare `.unwrap()` on the op path; use `expect(\"why\")` or `?`"
                    .to_string(),
            });
        }
    }
    out
}

// ------------------------------------------------------------- allowlist

/// The workspace allowlist. Empty today — every violation the rules found
/// during bring-up was fixed at the source instead (BTreeMap/BTreeSet
/// conversions, SAFETY comments, attribute hygiene). Add entries only for
/// violations with a written justification; `path_suffix` +
/// `line_contains` keep each exception pinned to one site.
pub const ALLOWLIST: &[Allow] = &[];

#[cfg(test)]
mod tests {
    use super::super::lint_files;
    use super::*;

    fn run_rule(name: &str, file: SourceFile) -> Vec<Finding> {
        lint_files(&[file], &[])
            .into_iter()
            .filter(|f| f.rule == name)
            .collect()
    }

    // rule 1: forbid-unsafe-crate ------------------------------------

    #[test]
    fn crate_root_without_forbid_is_flagged() {
        let f = SourceFile::new("crates/foo/src/lib.rs", "pub fn x() {}\n");
        let hits = run_rule("forbid-unsafe-crate", f);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("forbid(unsafe_code)"));
    }

    #[test]
    fn crate_root_with_forbid_is_clean() {
        let f = SourceFile::new(
            "crates/foo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn x() {}\n",
        );
        assert!(run_rule("forbid-unsafe-crate", f).is_empty());
    }

    #[test]
    fn ec_crate_root_needs_all_three_attributes() {
        let f = SourceFile::new(
            "crates/ec/src/lib.rs",
            "#![cfg_attr(not(feature = \"simd\"), forbid(unsafe_code))]\n\
             #![deny(unsafe_code)]\n",
        );
        let hits = run_rule("forbid-unsafe-crate", f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("unsafe_op_in_unsafe_fn"));
    }

    #[test]
    fn non_crate_root_is_ignored() {
        let f = SourceFile::new("crates/foo/src/inner.rs", "pub fn x() {}\n");
        assert!(run_rule("forbid-unsafe-crate", f).is_empty());
    }

    // rule 2: unsafe-confined ----------------------------------------

    #[test]
    fn unsafe_outside_kernels_is_flagged() {
        let f = SourceFile::new(
            "crates/core/src/exec.rs",
            "fn f() {\n    unsafe { std::hint::unreachable_unchecked() }\n}\n",
        );
        let hits = run_rule("unsafe-confined", f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn unsafe_in_kernels_attributes_and_prose_are_clean() {
        let kernels = SourceFile::new(
            "crates/ec/src/kernels.rs",
            "// SAFETY: fine here\nunsafe { x() }\n",
        );
        assert!(run_rule("unsafe-confined", kernels).is_empty());
        let attrs = SourceFile::new(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n// prose about unsafe things\n\
             #[deny(unsafe_op_in_unsafe_fn)]\nlet s = \"unsafe in a string\";\n",
        );
        assert!(run_rule("unsafe-confined", attrs).is_empty());
    }

    // rule 3: safety-comment -----------------------------------------

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let f = SourceFile::new(
            "crates/ec/src/kernels.rs",
            "#[cfg(feature = \"simd\")]\nfn f() {\n    unsafe { load(p) }\n}\n",
        );
        let hits = run_rule("safety-comment", f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn unsafe_with_nearby_safety_comment_is_clean() {
        let f = SourceFile::new(
            "crates/ec/src/kernels.rs",
            "#[cfg(feature = \"simd\")]\nfn f() {\n    // SAFETY: p is valid for 32 bytes\n    unsafe { load(p) }\n}\n",
        );
        assert!(run_rule("safety-comment", f).is_empty());
    }

    #[test]
    fn unsafe_without_simd_gate_is_flagged() {
        let f = SourceFile::new(
            "crates/ec/src/kernels.rs",
            "// SAFETY: justified\nunsafe { x() }\n",
        );
        let hits = run_rule("safety-comment", f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("simd"));
    }

    // rule 4: no-wall-clock ------------------------------------------

    #[test]
    fn wall_clock_in_sim_crate_is_flagged() {
        for needle in WALL_CLOCK_NEEDLES {
            let f = SourceFile::new(
                "crates/sim/src/engine.rs",
                format!("fn f() {{ let x = {needle}; }}\n"),
            );
            let hits = run_rule("no-wall-clock", f);
            assert_eq!(hits.len(), 1, "needle {needle} not caught");
        }
    }

    #[test]
    fn wall_clock_outside_scope_or_in_comment_is_clean() {
        let bench = SourceFile::new(
            "crates/bench/src/parallel.rs",
            "let t = std::time::Instant::now();\n",
        );
        assert!(run_rule("no-wall-clock", bench).is_empty());
        let comment = SourceFile::new(
            "crates/sim/src/time.rs",
            "// unlike std::time::Instant, SimTime is virtual\n",
        );
        assert!(run_rule("no-wall-clock", comment).is_empty());
    }

    // rule 5: no-unordered-iter --------------------------------------

    #[test]
    fn hashmap_iteration_is_flagged() {
        let f = SourceFile::new(
            "crates/core/src/thing.rs",
            "struct S { users: HashMap<u64, User> }\n\
             fn f(s: &S) {\n\
                 for (k, v) in s.users.iter() { emit(k, v); }\n\
             }\n",
        );
        let hits = run_rule("no-unordered-iter", f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert!(hits[0].message.contains("users"));
    }

    #[test]
    fn for_loop_over_hashset_is_flagged() {
        let f = SourceFile::new(
            "crates/core/src/thing.rs",
            "let faulty: HashSet<usize> = HashSet::new();\n\
             for m in &faulty { schedule(m); }\n",
        );
        let hits = run_rule("no-unordered-iter", f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn keyed_access_and_btree_iteration_are_clean() {
        let keyed = SourceFile::new(
            "crates/core/src/thing.rs",
            "struct S { users: HashMap<u64, User> }\n\
             fn f(s: &S, id: u64) { s.users.get(&id); }\n",
        );
        assert!(run_rule("no-unordered-iter", keyed).is_empty());
        let btree = SourceFile::new(
            "crates/core/src/thing.rs",
            "let m: BTreeMap<u64, u64> = BTreeMap::new();\n\
             for (k, v) in m.iter() { emit(k, v); }\n",
        );
        assert!(run_rule("no-unordered-iter", btree).is_empty());
    }

    // rule 6: no-op-path-unwrap --------------------------------------

    #[test]
    fn bare_unwrap_on_op_path_is_flagged() {
        let f = SourceFile::new(
            "crates/core/src/exec.rs",
            "fn f(r: Result<u32, ()>) -> u32 { r.unwrap() }\n",
        );
        let hits = run_rule("no-op-path-unwrap", f);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn expect_and_test_module_unwrap_are_clean() {
        let f = SourceFile::new(
            "crates/core/src/exec.rs",
            "fn f(r: Result<u32, ()>) -> u32 { r.expect(\"slot exists\") }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t(r: Result<u32, ()>) { r.unwrap(); }\n\
             }\n",
        );
        assert!(run_rule("no-op-path-unwrap", f).is_empty());
        let other = SourceFile::new(
            "crates/core/src/layout.rs",
            "fn f(r: Result<u32, ()>) -> u32 { r.unwrap() }\n",
        );
        assert!(run_rule("no-op-path-unwrap", other).is_empty());
    }

    #[test]
    fn every_op_path_file_exists() {
        // A deleted or renamed file would silently shrink the rule's scope.
        let root = crate::lint::workspace_root().expect("workspace root");
        for path in OP_PATH_FILES {
            assert!(root.join(path).is_file(), "{path} is not in the workspace");
        }
    }
}
