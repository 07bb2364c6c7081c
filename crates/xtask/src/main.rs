//! Task-runner entry point: `cargo xtask <command>`.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask lint [--json] [--fix] [--root <workspace-root>]\n\
         \n\
         Commands:\n\
         \x20 lint    run dqa-lint v2, the determinism/robustness static-analysis pass\n\
         \x20         (--fix applies mechanical rewrites, e.g. HashMap -> BTreeMap)\n\
         \n\
         Rules (waive with `// dqa-lint: allow(<rule>)` on the line, above it, or\n\
         above an enclosing item):\n\
         \x20 wall-clock           no Instant/SystemTime/thread::sleep in virtual-time crates\n\
         \x20 unordered-state      no HashMap/HashSet in sim/scheduler state crates\n\
         \x20 raw-instant          no direct Instant::now() in dqa-runtime\n\
         \x20 runtime-panic        no unwrap/expect/panic! in dqa-runtime non-test code\n\
         \x20 unbounded-recv       no bare .recv() in dqa-runtime non-test code\n\
         \x20 unbounded-channel    no std::sync::mpsc::channel in dqa-runtime\n\
         \x20 raw-fs-write         no ad-hoc fs writes in dqa-runtime (journal only)\n\
         \x20 lock-order           no cycles in the workspace lock-acquisition graph\n\
         \x20 blocking-under-guard no blocking call while a lock guard is held\n\
         \x20 hashmap-iter-order   no iteration over hash-container order\n\
         \x20 clock-leak           no wall-clock reads in Clock-parameterized code"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("lint") {
        return usage();
    }
    let mut json = false;
    let mut fix = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--fix" => fix = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let root = root.unwrap_or_else(|| {
        // When run via `cargo xtask`, the manifest dir is crates/xtask.
        std::env::var_os("CARGO_MANIFEST_DIR")
            .map(|d| PathBuf::from(d).join("../.."))
            .unwrap_or_else(|| PathBuf::from("."))
    });

    if fix {
        match xtask::run_fix(&root) {
            Ok((files, edits)) => {
                eprintln!("dqa-lint: applied {edits} fix(es) in {files} file(s)");
            }
            Err(e) => {
                eprintln!("dqa-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }

    match xtask::run_lint(&root) {
        Ok((checked, diags)) => {
            if json {
                println!("{}", xtask::render_json(checked, &diags));
            } else if diags.is_empty() {
                println!("dqa-lint: {checked} files checked, no violations");
            } else {
                print!("{}", xtask::render_text(&diags));
                println!("dqa-lint: {} violation(s) in {checked} files", diags.len());
            }
            if diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("dqa-lint: {e}");
            ExitCode::from(2)
        }
    }
}
