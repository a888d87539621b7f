//! Experiment harness regenerating every table and figure of the SimSub
//! paper's evaluation; the subcommand list below is the per-experiment
//! index.
//!
//! Usage:
//! ```text
//! experiments [--scale quick|full] <subcommand>...
//!
//! subcommands:
//!   toy     Figure 1 / Tables 3-4 worked example
//!   fig3    effectiveness (AR/MR/RR), Porto+Harbin x 3 measures
//!   fig4    efficiency vs DB size, with/without R-tree (Porto)
//!   fig10   efficiency on Harbin and Sports
//!   fig5    query-length groups: effectiveness + time (also fig6/fig11)
//!   table5  RLS-Skip k sweep
//!   fig7    SizeS xi sweep (also fig12)
//!   table6  SimTra vs SimSub
//!   fig8    UCR / Spring comparison (also fig13)
//!   fig9    Random-S comparison (also fig14)
//!   table7  training times
//!   table2  empirical complexity scaling
//!   all     everything above
//! ```

use simsub_bench::{experiments, Context, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::quick();
    let mut commands: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let value = args.get(i).map(String::as_str).unwrap_or("");
                scale = Scale::parse(value).unwrap_or_else(|| {
                    eprintln!("unknown scale '{value}' (expected quick|full)");
                    std::process::exit(2);
                });
            }
            cmd => commands.push(cmd.to_string()),
        }
        i += 1;
    }
    if commands.is_empty() {
        eprintln!("no experiment selected; try: experiments all");
        eprintln!("known: toy fig3 fig4 fig10 fig5 table5 fig7 table6 fig8 fig9 table7 table2 all");
        std::process::exit(2);
    }

    let mut ctx = Context::new(scale);
    for cmd in &commands {
        run(&mut ctx, cmd);
    }
}

fn run(ctx: &mut Context, cmd: &str) {
    match cmd {
        "toy" => experiments::toy(),
        "fig3" => experiments::fig3(ctx),
        "fig4" => experiments::efficiency(ctx, "Porto"),
        "fig10" => {
            experiments::efficiency(ctx, "Harbin");
            experiments::efficiency(ctx, "Sports");
        }
        "fig5" | "fig6" | "fig11" => experiments::query_length_groups(ctx, "Porto"),
        "table5" => experiments::table5(ctx),
        "fig7" | "fig12" => experiments::fig7(ctx),
        "table6" => experiments::table6(ctx),
        "fig8" | "fig13" => experiments::fig8(ctx),
        "fig9" | "fig14" => experiments::fig9(ctx),
        "table7" => experiments::table7(ctx),
        "table2" => experiments::table2(ctx),
        "ext" => simsub_bench::ext_measures::ext_measures(ctx),
        "all" => {
            experiments::toy();
            experiments::fig3(ctx);
            experiments::efficiency(ctx, "Porto");
            experiments::query_length_groups(ctx, "Porto");
            experiments::table5(ctx);
            experiments::fig7(ctx);
            experiments::table6(ctx);
            experiments::fig8(ctx);
            experiments::fig9(ctx);
            experiments::table2(ctx);
            experiments::efficiency(ctx, "Harbin");
            experiments::efficiency(ctx, "Sports");
            experiments::table7(ctx);
            simsub_bench::ext_measures::ext_measures(ctx);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}
