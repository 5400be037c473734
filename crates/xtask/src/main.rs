//! Workspace automation (`cargo xtask <command>`).
//!
//! Commands:
//!
//! * `lint` — the custom workspace lints over `crates/` (see
//!   [`lint`] and DESIGN.md §11); writes
//!   `results/lint_findings.json` and exits non-zero on any finding.
//! * `deny` — offline dependency/license policy from the committed
//!   manifests ([`deny`]); writes `results/deny.json`.
//! * `msrv` — checks the MSRV pin: the workspace sets `rust-version`
//!   and every member inherits it.

mod deny;
mod lexer;
mod lint;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lint::{findings_json, Finding};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(findings) if findings.is_empty() => ExitCode::SUCCESS,
        Ok(findings) => {
            for f in &findings {
                eprintln!("{}: {}:{}: {}", f.rule, f.file, f.line, f.message);
            }
            eprintln!("{} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("xtask: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<Vec<Finding>, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "lint" => {
            let root = flag_value(rest, "--root").unwrap_or_else(|| ".".into());
            let out = flag_value(rest, "--json-out")
                .unwrap_or_else(|| format!("{root}/results/lint_findings.json"));
            let findings = lint::run(Path::new(&root))?;
            write_json(&out, &findings_json(&findings))?;
            println!("lint: {} finding(s), report at {out}", findings.len());
            Ok(findings)
        }
        "deny" => {
            let root = flag_value(rest, "--root").unwrap_or_else(|| ".".into());
            let out = flag_value(rest, "--json-out")
                .unwrap_or_else(|| format!("{root}/results/deny.json"));
            let findings = deny::run(Path::new(&root))?;
            write_json(&out, &findings_json(&findings))?;
            println!("deny: {} finding(s), report at {out}", findings.len());
            Ok(findings)
        }
        "msrv" => {
            let root = flag_value(rest, "--root").unwrap_or_else(|| ".".into());
            let findings = msrv(Path::new(&root))?;
            println!("msrv: {} finding(s)", findings.len());
            Ok(findings)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: cargo xtask <lint|deny|msrv> [--root DIR] [--json-out PATH]".to_string()
}

/// `--flag value` lookup.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn write_json(path: &str, json: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))
}

/// MSRV pinning: the workspace declares `rust-version` under
/// `[workspace.package]` and every member inherits it with
/// `rust-version.workspace = true`, so a single edit moves the floor and
/// CI's pinned-toolchain build job stays honest.
fn msrv(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    let text = std::fs::read_to_string(&root_manifest)
        .map_err(|e| format!("read {}: {e}", root_manifest.display()))?;
    let mut section = String::new();
    let mut pinned = None;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') && line.ends_with(']') {
            section = line[1..line.len() - 1].to_string();
        } else if section == "workspace.package" && line.starts_with("rust-version") {
            pinned = line
                .split('=')
                .nth(1)
                .map(|v| v.trim().trim_matches('"').to_string());
        }
    }
    match pinned {
        Some(v) => println!("workspace MSRV: {v}"),
        None => findings.push(Finding {
            rule: "msrv_pin",
            file: "Cargo.toml".to_string(),
            line: 1,
            message: "no rust-version under [workspace.package]".to_string(),
        }),
    }
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for e in entries.flatten() {
            let m = e.path().join("Cargo.toml");
            if m.is_file() {
                members.push(m);
            }
        }
    }
    members.sort();
    for manifest in members {
        let rel = manifest
            .strip_prefix(root)
            .unwrap_or(&manifest)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("read {}: {e}", manifest.display()))?;
        let inherits = text
            .lines()
            .any(|l| l.trim().replace(' ', "") == "rust-version.workspace=true");
        if !inherits {
            findings.push(Finding {
                rule: "msrv_pin",
                file: rel,
                line: 1,
                message: "crate does not inherit the workspace MSRV \
                          (`rust-version.workspace = true`)"
                    .to_string(),
            });
        }
    }
    Ok(findings)
}
