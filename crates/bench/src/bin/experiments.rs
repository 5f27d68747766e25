//! CLI entry point for the reproduction harness.
//!
//! ```text
//! experiments [--quick] [--out DIR] <command>...
//! ```
//!
//! A command is a name from [`bench::experiments::EXPERIMENTS`], `report`
//! (render `REPORT.md` from the TSVs in the output directory) or `all`
//! (every experiment, in registry order). `--help` lists them all.

use bench::experiments::{self, EXPERIMENTS};
use bench::{Ctx, Opts};

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--quick] [--out DIR] <command>...\n\
         commands (aliases after the first name):"
    );
    for (names, _) in EXPERIMENTS {
        eprintln!("  {}", names.join(" "));
    }
    eprintln!(
        "  report    REPORT.md from the TSVs in the output directory\n\
         \x20 all       every experiment above, in order"
    );
    std::process::exit(2);
}

/// Writes `REPORT.md` from the TSVs already in the output directory.
fn report(ctx: &mut Ctx) {
    let body = bench::report::render_report(&ctx.opts.out_dir).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", ctx.opts.out_dir.display());
        std::process::exit(1);
    });
    let path = ctx.opts.out_dir.join("REPORT.md");
    std::fs::write(&path, body).expect("write REPORT.md");
    eprintln!("  -> {}", path.display());
}

/// The function a command runs, if the command exists.
fn command(name: &str) -> Option<fn(&mut Ctx)> {
    match name {
        "report" => Some(report),
        "all" => Some(experiments::all),
        _ => EXPERIMENTS
            .iter()
            .find(|(names, _)| names.contains(&name))
            .map(|&(_, run)| run),
    }
}

fn main() {
    let mut opts = Opts::default();
    let mut commands: Vec<fn(&mut Ctx)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--out" => {
                opts.out_dir = args.next().unwrap_or_else(|| usage()).into();
            }
            "--help" | "-h" => usage(),
            cmd => commands.push(command(cmd).unwrap_or_else(|| {
                eprintln!("unknown command: {cmd}");
                usage()
            })),
        }
    }
    if commands.is_empty() {
        usage();
    }

    let mut ctx = Ctx::new(opts);
    for run in commands {
        run(&mut ctx);
    }
}
