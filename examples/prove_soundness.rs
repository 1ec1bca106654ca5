//! Bounded verification in miniature (experiments E1/E2): exhaustively
//! prove every operator sound at width 4 and classify which operators are
//! optimal — the same checks the paper ran through Z3, here by
//! enumeration (see EXPERIMENTS.md, E1).
//!
//! Run with: `cargo run --release --example prove_soundness`

use tnum::Tnum;
use tnum_verify::ops::OpCatalog;
use tnum_verify::{check_optimality, check_soundness};

fn main() {
    const WIDTH: u32 = 4;
    println!("bounded verification at width {WIDTH} — 3^{WIDTH} = 81 tnums,");
    println!("81 x 81 = 6561 abstract pairs, 16^{WIDTH} = 65536 member checks per operator\n");

    for op in OpCatalog::<Tnum>::paper_suite() {
        let s = check_soundness(op, WIDTH);
        let o = check_optimality(op, WIDTH);
        println!(
            "{:<20} sound: {:<5} optimal: {:<5} ({:.2}% of pairs exact) [{:.0} ms]",
            op.name,
            s.is_sound(),
            o.is_optimal(),
            o.optimal_fraction() * 100.0,
            s.seconds * 1000.0,
        );
        assert!(s.is_sound(), "{} must be sound", op.name);
    }

    println!("\nAs the paper proves: tnum_add and tnum_sub are sound AND optimal");
    println!("(Theorems 6/22); every multiplication is sound but not optimal (§III-C).");
    println!("prove_soundness OK");
}
