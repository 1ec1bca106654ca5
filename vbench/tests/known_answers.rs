//! The benchmark's own checks: the known answers hold in the VM, a
//! broken label is caught, and a seed fixes the programs, the verdicts
//! and the single-caller counts exactly.

use vbench::gen::{Case, Family};
use vbench::label;
use vbench::run::{Tally, Verdict};
use vbench::trace::Census;
use vbench::workloads::{family_of, Workload};

fn first(cases: &[Case], family: Family) -> Case {
    cases
        .iter()
        .find(|c| c.family == family)
        .cloned()
        .expect("every corpus holds every family")
}

#[test]
fn every_label_holds_in_the_vm() {
    for workload in Workload::ALL {
        let cases = workload.corpus(7);
        assert_eq!(cases.len(), workload.corpus_size());
        label::check_all(&cases).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    }
}

#[test]
fn a_broken_label_is_caught() {
    let cases = Workload::AluDense.corpus(11);

    // A safe program relabelled unsafe: its first context does not fault.
    let mut case = first(&cases, Family::Safe);
    case.family = Family::OutOfBounds;
    case.contexts.truncate(1);
    assert!(
        label::check(&case).is_err(),
        "a safe witness must not pass as unsafe"
    );

    // An off-by-one program relabelled safe: its witness faults.
    let mut case = first(&cases, Family::OutOfBounds);
    case.family = Family::Safe;
    assert!(
        label::check(&case).is_err(),
        "a faulting program must not pass as safe"
    );

    // A spinning program relabelled safe: it runs out of fuel.
    let mut case = first(&cases, Family::NonTerminating);
    case.family = Family::Safe;
    assert!(
        label::check(&case).is_err(),
        "a spinning program must not pass as safe"
    );

    // An out-of-bounds label whose witness was replaced by one that stays
    // in bounds.
    let mut case = first(&cases, Family::OutOfBounds);
    case.contexts = vec![vec![0u8; vbench::gen::CTX_LEN]];
    assert!(
        label::check(&case).is_err(),
        "a benign witness must not pass"
    );

    // And the corpus with one flipped label fails as a whole.
    let mut broken = cases.clone();
    let i = broken
        .iter()
        .position(|c| c.family == Family::Relational)
        .expect("relational programs exist");
    broken[i].family = Family::OutOfBounds;
    broken[i].contexts.truncate(1);
    let err = label::check_all(&broken).expect_err("the flipped label is caught");
    assert!(err.starts_with(&format!("case {i}:")), "{err}");
}

#[test]
fn family_shares_do_not_depend_on_the_seed() {
    for workload in Workload::ALL {
        let a = workload.corpus(1);
        let b = workload.corpus(2);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.family, family_of(i));
            assert_eq!(y.family, family_of(i));
        }
        assert_ne!(
            a.iter().map(|c| &c.bytes).collect::<Vec<_>>(),
            b.iter().map(|c| &c.bytes).collect::<Vec<_>>(),
            "{}: two seeds gave the same programs",
            workload.name()
        );
    }
}

#[test]
fn a_seed_fixes_programs_verdicts_and_counts() {
    for workload in [Workload::AluDense, Workload::DeepPaths] {
        let a = workload.corpus(5);
        let b = workload.corpus(5);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.bytes == y.bytes && x.contexts == y.contexts));
        let ca = Census::take(workload, &a);
        let cb = Census::take(workload, &b);
        assert_eq!(
            ca.stats,
            cb.stats,
            "{}: census counts differ",
            workload.name()
        );
        assert!(ca.stats.iter().any(Option::is_some));
    }
}

#[test]
fn tally_counts_wrong_verdicts_once_per_program() {
    let cases = Workload::LoopBatch.corpus(3);
    let mut tally = Tally::new(&cases);
    let nt = cases
        .iter()
        .position(|c| c.family == Family::NonTerminating)
        .expect("spinning programs exist");
    let rel = cases
        .iter()
        .position(|c| c.family == Family::Relational)
        .expect("relational programs exist");
    for _ in 0..3 {
        tally.record(nt, Verdict::Accept);
        tally.record(rel, Verdict::Reject);
        tally.record(0, Verdict::Accept);
    }
    assert_eq!(tally.verdicts, 9);
    assert_eq!(tally.programs(), 3);
    assert_eq!(tally.unsound_accepts(), 1);
    assert_eq!(
        tally.memory_unsafe_accepts(),
        0,
        "spinning is not a memory fault"
    );
    assert_eq!(tally.false_rejects(), 1);
    assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    assert!(!tally.inconsistent);
    tally.record(0, Verdict::Reject);
    assert!(tally.inconsistent);
}
