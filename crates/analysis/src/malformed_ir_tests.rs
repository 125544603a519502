//! The malformed-IR cases of the former per-pass IR lint, on the same
//! inputs and under the same test names. Translation validation is now
//! the only structural checker, so each case asserts that
//! [`validate_artifacts`] rejects the broken stage, and only at the
//! passes adjacent to it.

mod tests {
    use crate::transval::validate_artifacts;
    use ccc_clight::gen::{gen_module, GenCfg};
    use ccc_compiler::driver::{compile_with_artifacts, CompilationArtifacts, PASS_NAMES};
    use ccc_compiler::ops::{Cmp, Op};
    use ccc_compiler::{linear, rtl};
    use ccc_machine::asm::{Instr as AInstr, MemArg};
    use ccc_machine::{Cond, Reg};

    fn arts(seed: u64) -> CompilationArtifacts {
        let (m, _) = gen_module(seed, &GenCfg::default());
        compile_with_artifacts(&m).expect("compiles")
    }

    /// Asserts that breaking stage `i` (0 is the Clight source, `i > 0`
    /// the output of `PASS_NAMES[i - 1]`) is rejected, and only by the
    /// pass that produced it or the one that consumes it.
    fn assert_rejected_at_stage(arts: &CompilationArtifacts, i: usize) {
        let allowed = &PASS_NAMES[i - 1..=i.min(PASS_NAMES.len() - 1)];
        let w = validate_artifacts(arts);
        let rejected: Vec<&str> = w.rejected().map(|sw| sw.pass.as_str()).collect();
        assert!(!rejected.is_empty(), "stage {i}: not rejected");
        assert!(
            rejected.iter().all(|p| allowed.contains(p)),
            "stage {i}: rejected at {rejected:?}, outside {allowed:?}:\n{w}"
        );
    }

    #[test]
    fn clean_pipelines_lint_clean() {
        for seed in 0..5 {
            let w = validate_artifacts(&arts(seed));
            assert!(w.ok(), "seed {seed} rejected:\n{w}");
        }
    }

    #[test]
    fn dangling_successor_is_reported() {
        let mut arts = arts(1);
        let f = arts.rtl.funcs.get_mut("f").unwrap();
        let n = *f.code.keys().next().unwrap();
        f.code.insert(n, rtl::Instr::Nop(999_999));
        assert_rejected_at_stage(&arts, 3);
    }

    #[test]
    fn use_before_def_is_reported() {
        // entry: r7 := r42 + 1 — r42 never defined.
        let f = rtl::Function {
            params: vec![],
            stack_slots: 0,
            entry: 0,
            code: [
                (0, rtl::Instr::Op(Op::AddImm(1), vec![42], 7, 1)),
                (1, rtl::Instr::Return(None)),
            ]
            .into(),
        };
        let mut arts = arts(1);
        arts.rtl_renumber.funcs.insert("f".into(), f);
        assert_rejected_at_stage(&arts, 5);
    }

    #[test]
    fn one_branch_definition_is_flagged() {
        // if (p0) r5 := 1; use r5 — undefined on the else path.
        let f = rtl::Function {
            params: vec![0],
            stack_slots: 0,
            entry: 0,
            code: [
                (0, rtl::Instr::CondImm(Cmp::Eq, 0, 0, 1, 2)),
                (1, rtl::Instr::Op(Op::Const(1), vec![], 5, 2)),
                (2, rtl::Instr::Print(5, 3)),
                (3, rtl::Instr::Return(None)),
            ]
            .into(),
        };
        let mut arts = arts(1);
        arts.rtl_tailcall.funcs.insert("f".into(), f);
        assert_rejected_at_stage(&arts, 4);
    }

    #[test]
    fn linear_missing_label_is_reported() {
        let mut arts = arts(2);
        let f = arts.linear_clean.funcs.get_mut("f").unwrap();
        f.code.push(linear::Instr::Goto(31_337));
        assert_rejected_at_stage(&arts, 9);
    }

    #[test]
    fn asm_bad_jump_and_frame_overflow_are_reported() {
        let mut arts = arts(3);
        let f = arts.asm.funcs.get_mut("f").unwrap();
        let slots = f.frame_slots;
        f.code.insert(0, AInstr::Jcc(Cond::E, "nowhere".into()));
        f.code
            .insert(0, AInstr::Load(Reg::Eax, MemArg::Stack(slots + 3)));
        assert_rejected_at_stage(&arts, 11);
    }
}
