//! Bias hunting: reproduce (at laptop scale) the Section-3 methodology —
//! generate keystream datasets, run the hypothesis tests, and print the
//! Table 1 / Fig. 4 / Fig. 5 / Fig. 6 style reports.
//!
//! Run with (scale optional: quick | laptop | extended):
//!
//! ```text
//! cargo run --release --example bias_hunting -- laptop
//! ```

use rc4_attacks::{
    experiments::{
        biases::{
            eq345_equalities, fig4_fm_shortterm, fig5_z1z2, fig6_single_byte, longterm_aligned,
            table1_fm_longterm, table2_new_biases, BiasScale,
        },
        Scale,
    },
    ExperimentContext,
};

fn scale_from_args() -> (Scale, BiasScale) {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "quick".to_string());
    let scale = Scale::parse(&name).unwrap_or_else(|| {
        eprintln!("unknown scale '{name}' (expected quick | laptop | extended)");
        std::process::exit(2);
    });
    let bias_scale = match scale {
        Scale::Quick => BiasScale::quick(),
        Scale::Laptop => BiasScale::default(),
        Scale::Extended => BiasScale {
            keys: 1 << 25,
            longterm_keys: 1 << 10,
            longterm_block: 1 << 18,
            ..BiasScale::default()
        },
    };
    (scale, bias_scale)
}

fn main() {
    let (scale, bias_scale) = scale_from_args();
    println!("bias hunt at {scale:?} scale: {bias_scale:?}\n");

    let ctx = ExperimentContext::new();
    let reports = [
        table1_fm_longterm(&bias_scale, &ctx),
        fig4_fm_shortterm(&bias_scale, &[1, 2, 5, 17, 64, 130, 257], &ctx),
        table2_new_biases(&bias_scale, &ctx),
        eq345_equalities(&bias_scale, &ctx),
        fig5_z1z2(&bias_scale, &[4, 16, 32, 64, 128, 256], &ctx),
        fig6_single_byte(&bias_scale, &ctx),
        longterm_aligned(&bias_scale, &ctx),
    ];
    for report in reports {
        match report {
            Ok(r) => println!("{}", r.render()),
            Err(e) => eprintln!("experiment failed: {e}"),
        }
    }
    println!("Note: weaker biases need more keys to reach significance; run with `extended`");
    println!("or use the `repro` binary (crates/bench) for the full regeneration sweep.");
}
