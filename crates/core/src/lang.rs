//! The abstract module language (Fig. 4 of the paper).
//!
//! A module language is a tuple `(Module, Core, InitCore, ↦)`. The
//! framework never inspects module code or core states; it only drives
//! the labelled transition `↦`, whose labels — a message [`StepMsg`] and a
//! [`Footprint`] — define the protocol between module-local execution and
//! the global semantics ([`crate::world`], [`crate::npworld`]).
//!
//! Languages implement the [`Lang`] trait. Programs mixing modules
//! written in different languages (the whole point of *separate*
//! compilation) are formed with the [`SumLang`] combinator, which is
//! itself a `Lang`.
//!
//! External function calls across modules follow Compositional CompCert
//! (footnote 5 of the paper): a module step may be a [`LocalStep::Call`],
//! the global semantics pushes a frame for the callee module, and on
//! [`LocalStep::Ret`] the caller is resumed via [`Lang::resume`].

use crate::footprint::Footprint;
use crate::mem::{FreeList, GlobalEnv, Memory, Val};
use std::fmt;
use std::hash::Hash;

/// An externally observable event `e` (Fig. 4). Event traces `B` are
/// sequences of these.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Event {
    /// An output of an integer value (the `print` of Fig. 10(c)).
    Print(i64),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Print(v) => write!(f, "print({v})"),
        }
    }
}

/// The message `ι` labelling an internal module step (Fig. 4), minus
/// `ret` which is the separate [`LocalStep::Ret`] variant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StepMsg {
    /// A silent step `τ`.
    Tau,
    /// An externally observable event.
    Event(Event),
    /// Entry into an atomic block. The step must not change memory and
    /// must have an empty footprint (rule `EntAt`, Fig. 7).
    EntAtom,
    /// Exit from an atomic block, same constraints as [`StepMsg::EntAtom`].
    ExtAtom,
}

/// One possible outcome of a module-local step
/// `F ⊢ (κ, σ) −ι/δ→ (κ′, σ′)` or `abort`.
///
/// The step relation is a *set* of outcomes ([`Lang::step`] returns a
/// `Vec`) because target machines may be internally nondeterministic
/// (e.g. x86-TSO store-buffer flushes).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LocalStep<C> {
    /// An internal step with message `msg` and footprint `fp`, moving to
    /// core `core` and memory `mem`.
    Step {
        /// The message labelling the step.
        msg: StepMsg,
        /// The footprint of the step.
        fp: Footprint,
        /// The successor core state.
        core: C,
        /// The successor memory.
        mem: Memory,
    },
    /// An external function call to `callee` in some other module. The
    /// global semantics resolves the callee, runs it, and resumes `cont`
    /// via [`Lang::resume`] with the returned value. Arguments are passed
    /// by value (the framework's simplified marshalling; see DESIGN.md).
    Call {
        /// Name of the called function.
        callee: String,
        /// Argument values.
        args: Vec<Val>,
        /// The caller core, waiting to be resumed.
        cont: C,
    },
    /// Return from the current core with value `val` (the `ret` message
    /// when this is the bottom frame of a thread).
    Ret {
        /// The returned value.
        val: Val,
    },
    /// The step aborts (undefined behaviour).
    Abort,
}

/// A module language `tl = (Module, Core, InitCore, ↦)` (Fig. 4).
///
/// Implementations must be *well-defined* in the sense of Def. 1 of the
/// paper; [`crate::wd::check_wd`] checks the four conditions dynamically.
///
/// # Examples
///
/// See [`crate::toy`] for a small complete instance used by the
/// framework's own tests.
pub trait Lang {
    /// Module syntax (`Module` in Fig. 4).
    type Module: Clone + fmt::Debug;
    /// Internal "core" states `κ` — control continuations, register
    /// files, … Everything except the shared memory.
    type Core: Clone + Eq + Hash + fmt::Debug;

    /// A human-readable language name (for reports).
    fn name(&self) -> &'static str;

    /// The entry points this module exports.
    fn exports(&self, module: &Self::Module) -> Vec<String>;

    /// `InitCore`: builds the initial core for `entry` with the given
    /// arguments, or `None` if `entry` is not exported.
    fn init_core(
        &self,
        module: &Self::Module,
        ge: &GlobalEnv,
        entry: &str,
        args: &[Val],
    ) -> Option<Self::Core>;

    /// The labelled transition `F ⊢ (κ, σ) −ι/δ→ …`: all possible
    /// outcomes of one step. An empty vector means the core is stuck
    /// (treated as `abort` by the global semantics).
    ///
    /// As in CompCert, the semantics is parameterized by a global
    /// environment `ge` (the linked `GE(Π)` when running inside a whole
    /// program) used for symbol resolution only; the step's behaviour on
    /// memory must be captured entirely by its footprint (Def. 1).
    fn step(
        &self,
        module: &Self::Module,
        ge: &GlobalEnv,
        flist: &FreeList,
        core: &Self::Core,
        mem: &Memory,
    ) -> Vec<LocalStep<Self::Core>>;

    /// Resumes a caller core (`cont` of a [`LocalStep::Call`]) with the
    /// callee's return value. `None` if the core cannot accept a return
    /// (an internal error of the instantiation).
    fn resume(&self, module: &Self::Module, core: &Self::Core, ret: Val) -> Option<Self::Core>;
}

/// Either of two values — the module/core carrier of [`SumLang`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sum<A, B> {
    /// A value of the first language.
    L(A),
    /// A value of the second language.
    R(B),
}

/// The disjoint union of two module languages: modules and cores are
/// tagged with the language they belong to. `SumLang` is how a program
/// links modules written in different languages (e.g. compiled x86
/// clients with a hand-written x86-TSO lock object, §7).
///
/// Nesting builds n-ary unions: `SumLang<A, SumLang<B, C>>`.
///
/// # Examples
///
/// ```
/// use ccc_core::lang::{Lang, Sum, SumLang};
/// use ccc_core::toy::{ToyLang, ToyModule};
/// let lang = SumLang(ToyLang, ToyLang);
/// let m: <SumLang<ToyLang, ToyLang> as Lang>::Module =
///     Sum::L(ToyModule::default());
/// assert!(lang.exports(&m).is_empty());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SumLang<A, B>(pub A, pub B);

impl<A: Lang, B: Lang> Lang for SumLang<A, B> {
    type Module = Sum<A::Module, B::Module>;
    type Core = Sum<A::Core, B::Core>;

    fn name(&self) -> &'static str {
        "sum"
    }

    fn exports(&self, module: &Self::Module) -> Vec<String> {
        match module {
            Sum::L(m) => self.0.exports(m),
            Sum::R(m) => self.1.exports(m),
        }
    }

    fn init_core(
        &self,
        module: &Self::Module,
        ge: &GlobalEnv,
        entry: &str,
        args: &[Val],
    ) -> Option<Self::Core> {
        match module {
            Sum::L(m) => self.0.init_core(m, ge, entry, args).map(Sum::L),
            Sum::R(m) => self.1.init_core(m, ge, entry, args).map(Sum::R),
        }
    }

    fn step(
        &self,
        module: &Self::Module,
        ge: &GlobalEnv,
        flist: &FreeList,
        core: &Self::Core,
        mem: &Memory,
    ) -> Vec<LocalStep<Self::Core>> {
        match (module, core) {
            (Sum::L(m), Sum::L(c)) => self
                .0
                .step(m, ge, flist, c, mem)
                .into_iter()
                .map(|s| map_step(s, Sum::L))
                .collect(),
            (Sum::R(m), Sum::R(c)) => self
                .1
                .step(m, ge, flist, c, mem)
                .into_iter()
                .map(|s| map_step(s, Sum::R))
                .collect(),
            // Module/core tag mismatch: an internal linking error.
            _ => vec![LocalStep::Abort],
        }
    }

    fn resume(&self, module: &Self::Module, core: &Self::Core, ret: Val) -> Option<Self::Core> {
        match (module, core) {
            (Sum::L(m), Sum::L(c)) => self.0.resume(m, c, ret).map(Sum::L),
            (Sum::R(m), Sum::R(c)) => self.1.resume(m, c, ret).map(Sum::R),
            _ => None,
        }
    }
}

/// Maps the core type of a [`LocalStep`].
pub fn map_step<C, D>(step: LocalStep<C>, f: impl Fn(C) -> D) -> LocalStep<D> {
    match step {
        LocalStep::Step { msg, fp, core, mem } => LocalStep::Step {
            msg,
            fp,
            core: f(core),
            mem,
        },
        LocalStep::Call { callee, args, cont } => LocalStep::Call {
            callee,
            args,
            cont: f(cont),
        },
        LocalStep::Ret { val } => LocalStep::Ret { val },
        LocalStep::Abort => LocalStep::Abort,
    }
}

/// A module declaration `(tl, ge, π)` of a module set `Π` (Fig. 4), minus
/// the language which is carried once per [`Prog`].
#[derive(Clone, Debug)]
pub struct ModuleDecl<L: Lang> {
    /// The module code `π`.
    pub code: L::Module,
    /// The module's global environment `ge`.
    pub ge: GlobalEnv,
}

/// A whole program `P ::= let Π in f1 ∥ … ∥ fn` (Fig. 4): a module set
/// and one entry name per thread.
///
/// # Examples
///
/// ```
/// use ccc_core::lang::Prog;
/// use ccc_core::toy::{toy_module, ToyLang};
/// let (code, ge) = toy_module(&[("main", vec![])], &[]);
/// let prog = Prog::new(ToyLang, vec![(code, ge)], ["main"]);
/// assert_eq!(prog.entries.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Prog<L: Lang> {
    /// The (shared) language dispatcher.
    pub lang: L,
    /// The module set `Π`.
    pub modules: Vec<ModuleDecl<L>>,
    /// Thread entry names `f1 … fn`.
    pub entries: Vec<String>,
}

impl<L: Lang> Prog<L> {
    /// Builds a program from `(code, ge)` module pairs and entry names.
    pub fn new(
        lang: L,
        modules: Vec<(L::Module, GlobalEnv)>,
        entries: impl IntoIterator<Item = impl Into<String>>,
    ) -> Prog<L> {
        Prog {
            lang,
            modules: modules
                .into_iter()
                .map(|(code, ge)| ModuleDecl { code, ge })
                .collect(),
            entries: entries.into_iter().map(Into::into).collect(),
        }
    }

    /// `GE(Π)`: the linked global environment, or `None` if the modules'
    /// environments are incompatible (Fig. 7).
    pub fn linked_ge(&self) -> Option<GlobalEnv> {
        GlobalEnv::link(self.modules.iter().map(|m| &m.ge))
    }

    /// Finds the module exporting `name`, searching in declaration order.
    pub fn resolve(&self, name: &str) -> Option<usize> {
        self.modules
            .iter()
            .position(|m| self.lang.exports(&m.code).iter().any(|e| e == name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{toy_module, ToyInstr, ToyLang};

    #[test]
    fn sum_lang_dispatches_left_and_right() {
        let lang = SumLang(ToyLang, ToyLang);
        let (code, ge) = toy_module(&[("f", vec![ToyInstr::Ret(0)])], &[]);
        let ml: <SumLang<ToyLang, ToyLang> as Lang>::Module = Sum::L(code.clone());
        let mr: <SumLang<ToyLang, ToyLang> as Lang>::Module = Sum::R(code);
        assert_eq!(lang.exports(&ml), vec!["f".to_string()]);
        assert_eq!(lang.exports(&mr), vec!["f".to_string()]);
        let cl = lang.init_core(&ml, &ge, "f", &[]).expect("init L");
        assert!(matches!(cl, Sum::L(_)));
        let cr = lang.init_core(&mr, &ge, "f", &[]).expect("init R");
        assert!(matches!(cr, Sum::R(_)));
    }

    #[test]
    fn sum_lang_mismatch_aborts() {
        let lang = SumLang(ToyLang, ToyLang);
        let (code, ge) = toy_module(&[("f", vec![ToyInstr::Ret(0)])], &[]);
        let ml: <SumLang<ToyLang, ToyLang> as Lang>::Module = Sum::L(code.clone());
        let mr: <SumLang<ToyLang, ToyLang> as Lang>::Module = Sum::R(code);
        let cl = lang.init_core(&ml, &ge, "f", &[]).expect("init");
        let fl = crate::mem::FreeList::for_thread(0);
        let steps = lang.step(&mr, &ge, &fl, &cl, &Memory::new());
        assert_eq!(steps, vec![LocalStep::Abort]);
    }

    #[test]
    fn prog_resolution_order() {
        let (m1, g1) = toy_module(&[("f", vec![ToyInstr::Ret(0)])], &[]);
        let (m2, g2) = toy_module(&[("g", vec![ToyInstr::Ret(1)])], &[]);
        let prog = Prog::new(ToyLang, vec![(m1, g1), (m2, g2)], ["f", "g"]);
        assert_eq!(prog.resolve("f"), Some(0));
        assert_eq!(prog.resolve("g"), Some(1));
        assert_eq!(prog.resolve("h"), None);
        assert!(prog.linked_ge().is_some());
    }
}
