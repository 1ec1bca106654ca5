//! Known-answer labelling: every [`Case`]'s answer is confirmed in
//! `ebpf::Vm` before it is used to judge a verdict.
//!
//! A safe program must reach `exit` without a fault on every one of its
//! sampled contexts. An unsafe program must fault on its witness
//! context, or run out of fuel when its family is `NonTerminating`.

use ebpf::{Program, Vm, VmError, VmOptions};

use crate::gen::{Case, Family};

/// Instruction budget of one labelling run: far above what any
/// terminating generated program executes, so running out of it means
/// the program does not terminate.
pub const FUEL: u64 = 1 << 16;

/// Confirms `case`'s known answer in the VM.
///
/// # Errors
///
/// A message naming the case and what the VM did instead, when the
/// label does not hold.
pub fn check(case: &Case) -> Result<(), String> {
    let prog = Program::from_bytes(&case.bytes).map_err(|e| {
        format!(
            "{} ({}): does not decode: {e}",
            case.shape,
            case.family.name()
        )
    })?;
    let run = |ctx: &[u8]| {
        let mut ctx = ctx.to_vec();
        Vm::with_options(VmOptions { fuel: FUEL }).run(&prog, &mut ctx)
    };
    if case.contexts.is_empty() {
        return Err(format!("{}: no context to check", case.shape));
    }
    let wrong = |what: String| format!("{} labelled {}: {what}", case.shape, case.family.name());
    if case.family.is_safe() {
        for ctx in &case.contexts {
            if let Err(e) = run(ctx) {
                return Err(wrong(format!("faults on a sampled context: {e}")));
            }
        }
        return Ok(());
    }
    match (case.family, run(&case.contexts[0])) {
        (Family::NonTerminating, Err(VmError::OutOfFuel)) => Ok(()),
        (Family::NonTerminating, other) => Err(wrong(format!("witness ended with {other:?}"))),
        (_, Err(VmError::OutOfFuel)) => Err(wrong("witness ran out of fuel".into())),
        (_, Err(_)) => Ok(()),
        (_, Ok(r0)) => Err(wrong(format!("witness exited cleanly with r0 = {r0}"))),
    }
}

/// Checks every case, stopping at the first label that does not hold.
///
/// # Errors
///
/// As [`check`], for the first failing case (with its index).
pub fn check_all(cases: &[Case]) -> Result<(), String> {
    for (i, case) in cases.iter().enumerate() {
        check(case).map_err(|e| format!("case {i}: {e}"))?;
    }
    Ok(())
}
