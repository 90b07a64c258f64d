//! The project lint rules over a lexed source file.
//!
//! All rules are *syntactic*: they see code tokens and comment text, not
//! types. That keeps the pass dependency-free and fast, at the cost of
//! documented approximations: rule 3 keys on the `SharedSlice` identifier
//! appearing in a file (not on resolved method receivers), rule 4 keys on
//! `Ordering::<variant>` token paths (the atomic variant names do not
//! collide with `std::cmp::Ordering`'s), rule 6 keys on `thread::<name>`
//! token paths, and rule 7 resolves plan symbols against the set of
//! identifiers that follow a definition keyword anywhere in the scanned
//! tree (see [`collect_definitions`]).
//!
//! Rules 1–6 are per-file ([`check_file`]). Rule 7 is the one *cross-file*
//! check ([`check_plan_symbols`]): the driver collects definitions over the
//! whole tree first, then validates every contract header against them.

use crate::lexer::Lexed;
use std::collections::BTreeSet;

/// A single audit violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

pub const RULE_UNSAFE_SAFETY: &str = "unsafe-needs-safety-comment";
pub const RULE_RAW_PTR: &str = "raw-pointer-confinement";
pub const RULE_DISJOINTNESS: &str = "shared-slice-needs-contract-header";
pub const RULE_ORDERING: &str = "atomic-ordering-discipline";
pub const RULE_STATIC_MUT: &str = "no-static-mut-or-no-mangle";
pub const RULE_BARE_THREAD: &str = "no-bare-std-thread";
pub const RULE_PLAN_SYMBOL: &str = "disjointness-plan-symbol-exists";

/// Modules allowed to contain raw-pointer casts, `transmute`, or
/// `UnsafeCell`: the one audited aliasing primitive, the prefetch-hint
/// helper (a single bounds-checked `as *const i8` for `_mm_prefetch`),
/// plus the vendored shims (third-party stand-ins, reviewed as a unit).
pub const RAW_PTR_ALLOWLIST: &[&str] =
    &["crates/core/src/disjoint.rs", "crates/core/src/prefetch.rs", "crates/shims/"];

/// Files exempt from the `//! disjointness:` header requirement: the module
/// that *defines* `SharedSlice` (its contract is the module itself).
pub const DISJOINTNESS_EXEMPT: &[&str] = &["crates/core/src/disjoint.rs"];

/// Registered Acquire/Release/AcqRel sites, as (path pattern, justification)
/// pairs. Register new pairs here — both sides — when one is introduced;
/// everywhere else the codebase synchronises with barriers and scoped joins.
pub const PAIRED_ORDERING_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/shims/rayon/src/hb.rs",
        "CLAIM_ORDERING: the check-hb claim-cursor AcqRel, defined once here so claim sites \
         carry no bare ordering path. One RMW is both sides of the pair — each claimant's \
         release half is the next claimant's acquire half on the same cursor (DESIGN.md §15).",
    ),
    (
        "crates/shims/rayon/src/pool.rs",
        "the consuming side of the claim-cursor pair (the chunk-claim fetch_add uses \
         hb::CLAIM_ORDERING) plus the pool's condvar-latch hand-offs (work_cv/done_cv, scope \
         completion), which pair through Mutex/Condvar and need no bare orderings.",
    ),
];

/// The atomic memory-ordering variant names (disjoint from
/// `std::cmp::Ordering`'s `Less`/`Equal`/`Greater`).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Sites allowed to use bare `std::thread` parallelism (rule 6), as
/// (path pattern, justification) pairs. Threads spawned outside the
/// instrumented pool carry no vector clock: their fork/join edges are
/// invisible to `check-hb`, so any `SharedSlice` traffic they perform is
/// checked against stale clocks. Every entry either *is* the checker
/// machinery, deliberately exploits the blind spot as a negative control,
/// or runs detached service loops that never touch a `SharedSlice`.
pub const BARE_THREAD_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/shims/",
        "the instrumented pool itself: workers are spawned here and every sync edge they \
         create is modeled by rayon::hb (plus the shim's own unit tests of those edges)",
    ),
    (
        "crates/core/src/hipa/native.rs",
        "the documented HiPa barrier-worker site: persistent per-run workers synchronised \
         exclusively by a TrackedBarrier, whose edges the checker models (DESIGN.md §15)",
    ),
    (
        "crates/core/src/disjoint.rs",
        "checker negative controls: bare threads are deliberately outside the modeled edge \
         set, so the overlap tests race deterministically even when serialised",
    ),
    (
        "crates/serve/src/server.rs",
        "detached service loops (census sampler, epoch scheduler): long-lived background \
         threads that share state through channels and locks only, never a SharedSlice",
    ),
    ("tests/check_hb.rs", "checker negative control (see crates/core/src/disjoint.rs)"),
    (
        "crates/bench/benches/pool.rs",
        "benchmark baseline: measures a bare-thread scope against the shim pool, so the \
         bare side must stay bare",
    ),
];

/// Matches a workspace-relative path against an allowlist pattern: a
/// trailing `/` means "anything under this directory", otherwise the
/// pattern must name the file exactly.
fn path_matches(path: &str, pat: &str) -> bool {
    if pat.ends_with('/') {
        path.starts_with(pat)
    } else {
        path == pat
    }
}

fn allowlisted(path: &str, list: &[&str]) -> bool {
    list.iter().any(|pat| path_matches(path, pat))
}

/// True when `line` carries one of `markers` in a comment on the same line,
/// or in the contiguous run of comment / blank / attribute lines
/// immediately above it.
fn annotated(lx: &Lexed, line: usize, markers: &[&str]) -> bool {
    let hit = |text: &str| markers.iter().any(|m| text.contains(m));
    if hit(&lx.line(line).comment) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let li = lx.line(l);
        if hit(&li.comment) {
            return true;
        }
        if li.has_code && !li.is_attr {
            return false;
        }
    }
    false
}

/// Rule 1: every `unsafe` token (block, fn, impl, trait) must carry a
/// `SAFETY:` comment — same line or immediately above — or, for declared
/// `unsafe fn`s, a `# Safety` doc section.
pub fn check_unsafe_safety(path: &str, lx: &Lexed) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut last_line = 0usize;
    for t in &lx.tokens {
        if t.text != "unsafe" || t.line == last_line {
            continue;
        }
        last_line = t.line;
        if !annotated(lx, t.line, &["SAFETY:", "# Safety"]) {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: RULE_UNSAFE_SAFETY,
                msg: "`unsafe` without a `SAFETY:` comment immediately above (or a \
                      `# Safety` doc section for declarations)"
                    .to_string(),
            });
        }
    }
    out
}

/// Rule 2: raw-pointer casts (`as *const` / `as *mut`), `transmute`, and
/// `UnsafeCell` are confined to the allowlisted audited modules.
pub fn check_raw_ptr_confinement(path: &str, lx: &Lexed) -> Vec<Finding> {
    if allowlisted(path, RAW_PTR_ALLOWLIST) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &lx.tokens;
    for (i, t) in toks.iter().enumerate() {
        let what = match t.text.as_str() {
            "transmute" => Some("`transmute`"),
            "UnsafeCell" => Some("`UnsafeCell`"),
            "as" => {
                let is_cast = toks.get(i + 1).is_some_and(|n| n.text == "*")
                    && toks.get(i + 2).is_some_and(|n| n.text == "const" || n.text == "mut");
                if is_cast {
                    Some("raw-pointer cast")
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(what) = what {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: RULE_RAW_PTR,
                msg: format!(
                    "{what} outside the audited aliasing modules \
                     (allowlist: {RAW_PTR_ALLOWLIST:?})"
                ),
            });
        }
    }
    out
}

/// Rule 3: a file that touches `SharedSlice` must carry a module-level
/// `//! disjointness:` contract header naming the partition plan that makes
/// its write indices disjoint.
pub fn check_disjointness_header(path: &str, lx: &Lexed) -> Vec<Finding> {
    if allowlisted(path, DISJOINTNESS_EXEMPT) {
        return Vec::new();
    }
    let Some(first) = lx.tokens.iter().find(|t| t.text == "SharedSlice") else {
        return Vec::new();
    };
    let has_header = (1..=lx.num_lines()).any(|l| {
        let c = &lx.line(l).comment;
        c.split("disjointness:").nth(1).is_some_and(|rest| !rest.trim().is_empty())
    });
    if has_header {
        return Vec::new();
    }
    vec![Finding {
        file: path.to_string(),
        line: first.line,
        rule: RULE_DISJOINTNESS,
        msg: "file uses `SharedSlice` but has no `//! disjointness:` contract header \
              naming the partition plan that keeps its writes disjoint"
            .to_string(),
    }]
}

/// Rule 4: atomic `Ordering` discipline. `Relaxed` sites must carry an
/// `ordering:` annotation comment (the project reserves them for
/// work-claim/statistics counters); `Acquire`/`Release`/`AcqRel` must be
/// registered in [`PAIRED_ORDERING_ALLOWLIST`]; `SeqCst` is always flagged.
pub fn check_ordering_discipline(path: &str, lx: &Lexed) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        if toks[i].text != "Ordering" {
            continue;
        }
        let is_path = toks.get(i + 1).is_some_and(|t| t.text == ":")
            && toks.get(i + 2).is_some_and(|t| t.text == ":");
        let Some(variant) = toks.get(i + 3) else { continue };
        if !is_path || !ATOMIC_ORDERINGS.contains(&variant.text.as_str()) {
            continue;
        }
        let line = variant.line;
        match variant.text.as_str() {
            "SeqCst" => out.push(Finding {
                file: path.to_string(),
                line,
                rule: RULE_ORDERING,
                msg: "`SeqCst` is flagged: no engine invariant needs sequential \
                      consistency — use `Relaxed` with an `ordering:` annotation, or a \
                      registered Acquire/Release pair"
                    .to_string(),
            }),
            "Acquire" | "Release" | "AcqRel" => {
                let registered =
                    PAIRED_ORDERING_ALLOWLIST.iter().any(|(pat, _)| path_matches(path, pat));
                if !registered {
                    out.push(Finding {
                        file: path.to_string(),
                        line,
                        rule: RULE_ORDERING,
                        msg: format!(
                            "`{}` outside the registered acquire/release pairs — add the \
                             site (both sides of the pair) to PAIRED_ORDERING_ALLOWLIST",
                            variant.text
                        ),
                    });
                }
            }
            _ => {
                // Relaxed
                if !annotated(lx, line, &["ordering:"]) {
                    out.push(Finding {
                        file: path.to_string(),
                        line,
                        rule: RULE_ORDERING,
                        msg: "`Relaxed` without an `ordering:` annotation comment stating \
                              why no payload ordering is required"
                            .to_string(),
                    });
                }
            }
        }
    }
    out
}

/// Rule 5: no mutable process-global state or linkage escapes. `static mut`
/// is banned outright (the project's shared mutation goes through
/// `SharedSlice` or atomics, both auditable); `#[no_mangle]` is banned
/// because an unmangled export bypasses the crate boundary the other rules
/// audit along. No allowlist — neither construct has a sanctioned use here.
pub fn check_static_mut(path: &str, lx: &Lexed) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &lx.tokens;
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "static" if toks.get(i + 1).is_some_and(|n| n.text == "mut") => {
                out.push(Finding {
                    file: path.to_string(),
                    line: t.line,
                    rule: RULE_STATIC_MUT,
                    msg: "`static mut` is banned: use an atomic, a lock, or a \
                          `SharedSlice` with a documented disjointness contract"
                        .to_string(),
                });
            }
            // Only flag the attribute form; an identifier named `no_mangle`
            // in ordinary code has no linkage effect, and attributes are the
            // only place the token appears in practice.
            "no_mangle" if lx.line(t.line).is_attr => {
                out.push(Finding {
                    file: path.to_string(),
                    line: t.line,
                    rule: RULE_STATIC_MUT,
                    msg: "`#[no_mangle]` is banned: unmangled exports escape the \
                          audited crate boundary"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
    out
}

/// Rule 6: no bare `std::thread` parallelism. `thread::spawn`,
/// `thread::scope`, and `thread::Builder` are banned outside
/// [`BARE_THREAD_ALLOWLIST`]: a thread the shim pool did not spawn carries
/// no vector clock, so the `check-hb` race detector cannot see its fork and
/// join edges — `SharedSlice` traffic on such a thread is checked against
/// stale clocks and races are missed or misattributed. (`thread::sleep`,
/// `thread::current`, and the other non-spawning helpers stay allowed.)
pub fn check_bare_thread(path: &str, lx: &Lexed) -> Vec<Finding> {
    if BARE_THREAD_ALLOWLIST.iter().any(|(pat, _)| path_matches(path, pat)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        if toks[i].text != "thread" {
            continue;
        }
        let is_path = toks.get(i + 1).is_some_and(|t| t.text == ":")
            && toks.get(i + 2).is_some_and(|t| t.text == ":");
        let Some(what) = toks.get(i + 3) else { continue };
        if !is_path || !matches!(what.text.as_str(), "spawn" | "scope" | "Builder") {
            continue;
        }
        out.push(Finding {
            file: path.to_string(),
            line: what.line,
            rule: RULE_BARE_THREAD,
            msg: format!(
                "bare `std::thread::{}` outside the instrumented pool: threads spawned here \
                 are invisible to the check-hb vector clocks (fork/join edges unmodeled), so \
                 races on them are missed — run the work on the rayon shim pool, or register \
                 the site in BARE_THREAD_ALLOWLIST with a justification",
                what.text
            ),
        });
    }
    out
}

/// The keywords whose following identifier declares a name (rule 7's
/// definition set). `fn`/`const` etc. may stack (`pub const fn f`), so a
/// keyword followed by another keyword contributes nothing.
const DEF_KEYWORDS: &[&str] =
    &["fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union"];

/// Identifier-introducing tokens that can sit between a definition keyword
/// and the defined name without naming anything themselves.
const DEF_NOISE: &[&str] = &["mut", "unsafe", "async", "extern", "dyn", "impl"];

/// Collects every identifier the file *defines*: the token following a
/// definition keyword (`fn f`, `struct S`, `const C`, ...). Over-collects
/// harmlessly (e.g. `mod tests`); rule 7 only asks membership.
pub fn collect_definitions(lx: &Lexed) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        if !DEF_KEYWORDS.contains(&toks[i].text.as_str()) {
            continue;
        }
        let Some(n) = toks.get(i + 1) else { continue };
        let is_ident = n.text.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
        if is_ident
            && !DEF_KEYWORDS.contains(&n.text.as_str())
            && !DEF_NOISE.contains(&n.text.as_str())
        {
            out.insert(n.text.clone());
        }
    }
    out
}

/// Extracts the `//! disjointness:` contract headers of a file: lines whose
/// comment text *starts* with `disjointness:` (after doc-comment sigils),
/// concatenated with the contiguous non-code comment lines below them. The
/// strict line-start match keeps prose *mentions* of the marker (like this
/// one) from counting as headers.
fn contract_headers(lx: &Lexed) -> Vec<(usize, String)> {
    let strip = |c: &str| -> String { c.trim_start_matches(['/', '!', ' ', '\t']).to_string() };
    let mut out = Vec::new();
    for l in 1..=lx.num_lines() {
        let t = strip(&lx.line(l).comment);
        let Some(rest) = t.strip_prefix("disjointness:") else { continue };
        let mut text = rest.to_string();
        let mut k = l + 1;
        while k <= lx.num_lines() && !lx.line(k).has_code {
            let cont = strip(&lx.line(k).comment);
            if cont.is_empty() {
                break;
            }
            text.push(' ');
            text.push_str(&cont);
            k += 1;
        }
        out.push((l, text));
    }
    out
}

/// The backtick-quoted symbol candidates in a header text: for each
/// `` `span` ``, the leading identifier of its last `::` segment (so
/// `` `a::b::plan(x)` `` yields `plan`, `` `parts[j]` `` yields `parts`).
fn plan_candidates(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('`') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('`') else { break };
        let span = &after[..end];
        rest = &after[end + 1..];
        let seg = span.rsplit("::").next().unwrap_or(span);
        let ident: String =
            seg.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        if ident.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_') {
            out.push(ident);
        }
    }
    out
}

/// Rule 7: every `//! disjointness:` contract header must name — in
/// backticks — at least one plan symbol that is actually *defined* in the
/// scanned tree (`defs`, from [`collect_definitions`] over every file). A
/// header citing a partitioner that no longer exists is a stale contract:
/// the prose promises disjointness that nothing in the tree produces.
pub fn check_plan_symbols(path: &str, lx: &Lexed, defs: &BTreeSet<String>) -> Vec<Finding> {
    if allowlisted(path, DISJOINTNESS_EXEMPT) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (line, text) in contract_headers(lx) {
        let cands = plan_candidates(&text);
        if cands.iter().any(|c| defs.contains(c)) {
            continue;
        }
        let msg = if cands.is_empty() {
            "contract header names no backtick-quoted plan symbol — name the partition \
             plan (a function, struct, or const defined in the tree) that keeps the \
             writes disjoint"
                .to_string()
        } else {
            format!(
                "contract header names {cands:?}, but none of them is defined anywhere \
                 in the scanned tree — the disjointness plan it cites is stale"
            )
        };
        out.push(Finding { file: path.to_string(), line, rule: RULE_PLAN_SYMBOL, msg });
    }
    out
}

/// Runs the six per-file rules over one file. Rule 7 needs the whole tree's
/// definition set — the driver runs [`check_plan_symbols`] separately.
pub fn check_file(path: &str, lx: &Lexed) -> Vec<Finding> {
    let mut out = check_unsafe_safety(path, lx);
    out.extend(check_raw_ptr_confinement(path, lx));
    out.extend(check_disjointness_header(path, lx));
    out.extend(check_ordering_discipline(path, lx));
    out.extend(check_static_mut(path, lx));
    out.extend(check_bare_thread(path, lx));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn unsafe_with_safety_above_passes() {
        let lx = lex("fn f() {\n    // SAFETY: disjoint per thread.\n    unsafe { g() }\n}\n");
        assert!(check_unsafe_safety("x.rs", &lx).is_empty());
    }

    #[test]
    fn unsafe_with_attr_between_passes() {
        let lx = lex("// SAFETY: fine.\n#[inline]\nunsafe fn g() {}\n");
        assert!(check_unsafe_safety("x.rs", &lx).is_empty());
    }

    #[test]
    fn doc_safety_section_passes() {
        let lx =
            lex("/// Does a thing.\n///\n/// # Safety\n/// Caller upholds X.\nunsafe fn g() {}\n");
        assert!(check_unsafe_safety("x.rs", &lx).is_empty());
    }

    #[test]
    fn bare_unsafe_fails() {
        let lx = lex("fn f() {\n    let y = 1;\n    unsafe { g() }\n}\n");
        let f = check_unsafe_safety("x.rs", &lx);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn relaxed_needs_annotation() {
        let src = "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }";
        assert_eq!(check_ordering_discipline("x.rs", &lex(src)).len(), 1);
        let ok = "fn f(c: &AtomicUsize) {\n    // ordering: relaxed (claim counter)\n    \
                  c.fetch_add(1, Ordering::Relaxed);\n}";
        assert!(check_ordering_discipline("x.rs", &lex(ok)).is_empty());
    }

    #[test]
    fn cmp_ordering_is_ignored() {
        let lx = lex("fn f(a: u32, b: u32) -> std::cmp::Ordering { std::cmp::Ordering::Less }");
        assert!(check_ordering_discipline("x.rs", &lx).is_empty());
    }

    #[test]
    fn seqcst_always_flagged() {
        let lx = lex("fn f(c: &AtomicUsize) { c.load(Ordering::SeqCst); }");
        assert_eq!(check_ordering_discipline("x.rs", &lx).len(), 1);
    }

    #[test]
    fn raw_ptr_confined() {
        let src = "fn f(x: &mut [u8]) { let _p = x as *mut [u8]; }";
        assert_eq!(check_raw_ptr_confinement("crates/graph/src/csr.rs", &lex(src)).len(), 1);
        assert!(check_raw_ptr_confinement("crates/core/src/disjoint.rs", &lex(src)).is_empty());
        assert!(check_raw_ptr_confinement("crates/shims/rayon/src/lib.rs", &lex(src)).is_empty());
    }

    #[test]
    fn multiplication_after_as_is_not_a_cast() {
        let lx = lex("fn f(x: usize, y: usize) -> usize { (x as usize) * y }");
        assert!(check_raw_ptr_confinement("crates/graph/src/csr.rs", &lx).is_empty());
    }

    #[test]
    fn static_mut_is_flagged() {
        let lx = lex("static mut COUNTER: usize = 0;\n");
        let f = check_static_mut("x.rs", &lx);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_STATIC_MUT);
    }

    #[test]
    fn static_lifetime_is_not_static_mut() {
        let lx = lex("fn f(x: &'static mut u32) -> &'static str { \"s\" }\n");
        assert!(check_static_mut("x.rs", &lx).is_empty());
        let imm = lex("static OK: usize = 0;\n");
        assert!(check_static_mut("x.rs", &imm).is_empty());
    }

    #[test]
    fn no_mangle_attr_is_flagged_but_comment_is_not() {
        let lx = lex("#[no_mangle]\npub extern \"C\" fn f() {}\n");
        assert_eq!(check_static_mut("x.rs", &lx).len(), 1);
        let c = lex("// mentions no_mangle in prose only\nfn f() {}\n");
        assert!(check_static_mut("x.rs", &c).is_empty());
    }

    #[test]
    fn bare_thread_spawn_scope_builder_are_flagged() {
        let src = "fn f() {\n    std::thread::spawn(|| {});\n    std::thread::scope(|s| {});\n    \
                   let b = std::thread::Builder::new();\n}\n";
        let f = check_bare_thread("crates/graph/src/gen.rs", &lex(src));
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == RULE_BARE_THREAD));
        // Allowlisted paths pass untouched.
        assert!(check_bare_thread("crates/shims/rayon/src/pool.rs", &lex(src)).is_empty());
        assert!(check_bare_thread("crates/core/src/hipa/native.rs", &lex(src)).is_empty());
    }

    #[test]
    fn non_spawning_thread_helpers_are_allowed() {
        let src =
            "fn f() {\n    std::thread::sleep(d);\n    let id = std::thread::current();\n    \
                   std::thread::yield_now();\n}\n";
        assert!(check_bare_thread("crates/graph/src/gen.rs", &lex(src)).is_empty());
        // Mentions in comments and strings never fire.
        let prose = "// call std::thread::spawn here\nfn f() { let s = \"thread::spawn\"; }\n";
        assert!(check_bare_thread("crates/graph/src/gen.rs", &lex(prose)).is_empty());
    }

    #[test]
    fn definitions_are_collected_past_stacked_keywords() {
        let lx = lex("pub const fn plan_a() {}\nstruct PlanB;\nstatic PLAN_C: u32 = 0;\n\
                      type PlanD = u32;\nfn generic<T>(x: T) {}\n");
        let defs = collect_definitions(&lx);
        for name in ["plan_a", "PlanB", "PLAN_C", "PlanD", "generic"] {
            assert!(defs.contains(name), "missing {name} in {defs:?}");
        }
        assert!(!defs.contains("fn") && !defs.contains("u32"));
    }

    #[test]
    fn plan_symbol_must_resolve() {
        let defs: BTreeSet<String> = ["real_plan".to_string()].into_iter().collect();
        let good = "//! disjointness: chunk plan (`real_plan`) — each worker owns a range.\n\
                    fn f() {}\n";
        assert!(check_plan_symbols("x.rs", &lex(good), &defs).is_empty());
        // A path-qualified or called symbol still resolves by last segment.
        let qualified = "//! disjointness: via `crate::plans::real_plan(n)` ranges.\nfn f() {}\n";
        assert!(check_plan_symbols("x.rs", &lex(qualified), &defs).is_empty());
        let stale = "//! disjointness: chunk plan (`gone_plan`) — stale reference.\nfn f() {}\n";
        let f = check_plan_symbols("x.rs", &lex(stale), &defs);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_PLAN_SYMBOL);
        let unnamed = "//! disjointness: writes are disjoint, trust us.\nfn f() {}\n";
        assert_eq!(check_plan_symbols("x.rs", &lex(unnamed), &defs).len(), 1);
    }

    #[test]
    fn plan_symbol_headers_span_continuation_lines() {
        let defs: BTreeSet<String> = ["real_plan".to_string()].into_iter().collect();
        // The symbol sits on the continuation line of the header.
        let wrapped = "//! disjointness: chunked-claim plan — every write below stays inside\n\
                       //! the range `real_plan` hands the claiming worker.\n\nfn f() {}\n";
        assert!(check_plan_symbols("x.rs", &lex(wrapped), &defs).is_empty());
        // A prose *mention* mid-sentence is not a header and never fires.
        let mention = "//! files carry a `//! disjointness:` header (see DESIGN.md).\nfn f() {}\n";
        assert!(check_plan_symbols("x.rs", &lex(mention), &defs).is_empty());
    }

    #[test]
    fn shared_slice_needs_header() {
        let bad = "use hipa_core::disjoint::SharedSlice;\nfn f() {}\n";
        assert_eq!(check_disjointness_header("x.rs", &lex(bad)).len(), 1);
        let good = "//! disjointness: fixed per-thread vertex ranges.\n\
                    use hipa_core::disjoint::SharedSlice;\nfn f() {}\n";
        assert!(check_disjointness_header("x.rs", &lex(good)).is_empty());
        // An empty header does not count.
        let empty = "//! disjointness:\nuse hipa_core::disjoint::SharedSlice;\n";
        assert_eq!(check_disjointness_header("x.rs", &lex(empty)).len(), 1);
    }
}
