//! `hipa-audit`: the workspace soundness audit.
//!
//! Every native engine's hot path rests on one hand-upheld invariant:
//! `SharedSlice` writes are structurally disjoint per thread (see
//! `crates/core/src/disjoint.rs` and DESIGN.md §10). This crate enforces the
//! *static* half of that contract with seven lint rules over a hand-rolled
//! lexer (no `syn`, no registry access):
//!
//! 1. every `unsafe` block/fn/impl carries a `SAFETY:` comment (or a
//!    `# Safety` doc section on declarations);
//! 2. raw-pointer casts, `transmute`, and `UnsafeCell` stay confined to the
//!    audited aliasing modules (`disjoint.rs`, `prefetch.rs`, the vendored
//!    shims);
//! 3. files touching `SharedSlice` carry a `//! disjointness:` contract
//!    header naming the partition plan that keeps their writes disjoint;
//! 4. atomic `Ordering` discipline: annotated `Relaxed` only, registered
//!    Acquire/Release pairs only, `SeqCst` flagged;
//! 5. no `static mut` and no `#[no_mangle]`: mutable process-globals and
//!    unmangled exports bypass the contracts the other rules audit;
//! 6. no bare `std::thread` parallelism outside the registered sites: a
//!    thread the shim pool did not spawn carries no vector clock, so the
//!    `check-hb` race detector cannot see its fork/join edges;
//! 7. every `//! disjointness:` header names (in backticks) a plan symbol
//!    that is actually defined somewhere in the tree — a cross-file check,
//!    so stale contracts citing deleted partitioners are caught.
//!
//! The *dynamic* half is the `check-hb` feature on `hipa-core`: `SharedSlice` keeps per-element shadow state checked against
//! the shim's vector clocks and panics on unordered access (DESIGN.md §15).
//! Run both locally with:
//!
//! ```text
//! cargo run -q -p hipa-audit
//! cargo test -q --features check-hb
//! ```
#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

pub use rules::{check_file, Finding};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Per-crate audit statistics, surfaced in the summary table.
#[derive(Debug, Default, Clone)]
pub struct CrateStats {
    pub files: usize,
    pub unsafe_tokens: usize,
    pub safety_comments: usize,
    pub shared_slice_files: usize,
    pub contract_headers: usize,
    pub relaxed_sites: usize,
    pub paired_sites: usize,
    pub seqcst_sites: usize,
}

/// The result of auditing a workspace tree.
#[derive(Debug, Default)]
pub struct AuditReport {
    pub findings: Vec<Finding>,
    pub stats: BTreeMap<String, CrateStats>,
    pub files_scanned: usize,
}

impl AuditReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the findings list (empty string when clean).
    pub fn render_findings(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.msg);
        }
        out
    }

    /// Renders the per-crate unsafe/SAFETY summary table.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:>7} {:>7} {:>9} {:>8} {:>7} {:>7}",
            "crate", "files", "unsafe", "SAFETY", "disjfiles", "headers", "relaxed", "seqcst"
        );
        let mut total = CrateStats::default();
        for (krate, s) in &self.stats {
            let _ = writeln!(
                out,
                "{:<18} {:>5} {:>7} {:>7} {:>9} {:>8} {:>7} {:>7}",
                krate,
                s.files,
                s.unsafe_tokens,
                s.safety_comments,
                s.shared_slice_files,
                s.contract_headers,
                s.relaxed_sites,
                s.seqcst_sites
            );
            total.files += s.files;
            total.unsafe_tokens += s.unsafe_tokens;
            total.safety_comments += s.safety_comments;
            total.shared_slice_files += s.shared_slice_files;
            total.contract_headers += s.contract_headers;
            total.relaxed_sites += s.relaxed_sites;
            total.seqcst_sites += s.seqcst_sites;
        }
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:>7} {:>7} {:>9} {:>8} {:>7} {:>7}",
            "TOTAL",
            total.files,
            total.unsafe_tokens,
            total.safety_comments,
            total.shared_slice_files,
            total.contract_headers,
            total.relaxed_sites,
            total.seqcst_sites
        );
        out
    }
}

/// Which crate a workspace-relative path belongs to, for the summary table.
fn crate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/shims/") {
        return format!("shims/{}", rest.split('/').next().unwrap_or("?"));
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        return rest.split('/').next().unwrap_or("?").to_string();
    }
    "hipa (root)".to_string()
}

/// Directories never scanned: build output, VCS, the audit's deliberately
/// violating lint fixtures, and generated experiment output.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Audits a single file's contents, returning its findings. Rule 7 resolves
/// plan symbols against this one file's definitions (the fixture tests use
/// this entry point); the tree walk below resolves against every file's.
pub fn audit_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let lx = lexer::lex(src);
    let defs = rules::collect_definitions(&lx);
    let mut out = check_file(rel_path, &lx);
    out.extend(rules::check_plan_symbols(rel_path, &lx, &defs));
    out
}

/// Walks `root` and audits every `.rs` file under it. Two passes: the first
/// lexes everything and unions the definition sets (rule 7's symbol table),
/// the second runs the per-file rules plus the cross-file plan-symbol check.
pub fn audit_tree(root: &Path) -> std::io::Result<AuditReport> {
    let mut files = Vec::new();
    walk(root, &mut files);
    let mut lexed = Vec::with_capacity(files.len());
    let mut defs = std::collections::BTreeSet::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&path)?;
        let lx = lexer::lex(&src);
        defs.append(&mut rules::collect_definitions(&lx));
        lexed.push((rel, lx));
    }
    let mut report = AuditReport::default();
    for (rel, lx) in lexed {
        report.findings.extend(check_file(&rel, &lx));
        report.findings.extend(rules::check_plan_symbols(&rel, &lx, &defs));
        report.files_scanned += 1;

        let s = report.stats.entry(crate_of(&rel)).or_default();
        s.files += 1;
        s.unsafe_tokens += lx.tokens.iter().filter(|t| t.text == "unsafe").count();
        let mut has_shared = false;
        let mut has_header = false;
        for t in &lx.tokens {
            if t.text == "SharedSlice" {
                has_shared = true;
            }
        }
        for l in 1..=lx.num_lines() {
            let c = &lx.line(l).comment;
            s.safety_comments += c.matches("SAFETY:").count();
            if c.split("disjointness:").nth(1).is_some_and(|r| !r.trim().is_empty()) {
                has_header = true;
            }
        }
        s.shared_slice_files += usize::from(has_shared);
        s.contract_headers += usize::from(has_header);
        let toks = &lx.tokens;
        for i in 0..toks.len() {
            if toks[i].text == "Ordering"
                && toks.get(i + 1).is_some_and(|t| t.text == ":")
                && toks.get(i + 2).is_some_and(|t| t.text == ":")
            {
                match toks.get(i + 3).map(|t| t.text.as_str()) {
                    Some("Relaxed") => s.relaxed_sites += 1,
                    Some("Acquire" | "Release" | "AcqRel") => s.paired_sites += 1,
                    Some("SeqCst") => s.seqcst_sites += 1,
                    _ => {}
                }
            }
        }
    }
    report.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Locates the workspace root: walks up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
