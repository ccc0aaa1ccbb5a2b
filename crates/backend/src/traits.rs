//! The `Backend` / `Executable` traits — the seam every engine execution
//! crosses.
//!
//! A backend is a *factory*: [`Backend::prepare`] turns a backend-neutral
//! plan ([`ExecPlan`]) plus a [`KernelConfig`] into a boxed
//! [`Executable`], doing whatever backend-specific compilation it wants
//! (the native backend builds its fused sweep executor; the interpreter
//! lowers the plan to [`crate::sweep::SweepIr`]; a GPU backend would
//! compile shaders). An executable is then run any number of times with
//! caller-provided buffers — the engines pool the scratch.
//!
//! The split mirrors the plan/execute split the paper's Section 5 needs:
//! plan construction (the König coloring) is backend-neutral and cached;
//! *preparation* (this trait) is per-backend and cheap; *execution* is
//! the three memory sweeps.

use crate::config::KernelConfig;
use hmm_perm::Permutation;
use hmm_plan::{PlanIr, Result};

/// How a plan executes: the γ_w decision's two arms (paper Table II).
///
/// Until this refactor the enum was `hmm_native::Backend`; it is renamed
/// `Route` so "backend" can mean what it now is — *which implementation
/// executes* ([`Backend`]), orthogonal to *which algorithm* (this enum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Single scattered pass (`dst[P[i]] = src[i]`) — wins at low γ_w.
    Scatter,
    /// Three-sweep scheduled permutation from a [`PlanIr`].
    Scheduled,
}

/// The backend-neutral input to [`Backend::prepare`]: either arm carries
/// exactly what that route needs — the scatter arm has no `PlanIr` (no
/// König coloring is ever built for it), the scheduled arm nothing but
/// the IR.
#[derive(Debug, Clone, Copy)]
pub enum ExecPlan<'a> {
    /// Execute as a single scattered pass of this permutation.
    Scatter(&'a Permutation),
    /// Execute the three-sweep schedule this IR encodes.
    Scheduled(&'a PlanIr),
}

impl ExecPlan<'_> {
    /// The route this plan executes on.
    pub fn route(&self) -> Route {
        match self {
            ExecPlan::Scatter(_) => Route::Scatter,
            ExecPlan::Scheduled(_) => Route::Scheduled,
        }
    }

    /// Number of elements the plan permutes.
    pub fn len(&self) -> usize {
        match self {
            ExecPlan::Scatter(p) => p.len(),
            ExecPlan::Scheduled(ir) => ir.len(),
        }
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A prepared, immutable, reusable execution of one plan on one backend.
///
/// `run` is `&self` and thread-safe: the engines call it concurrently
/// from many threads with distinct buffer triples. Implementations keep
/// any per-run mutable state on the stack (or in the caller's scratch),
/// never in `self`.
pub trait Executable<T>: Send + Sync {
    /// Execute `dst[P[i]] = src[i]`. `scratch` must be exactly
    /// [`Executable::scratch_len`] elements, except that an executable
    /// needing none ignores whatever it is passed; its contents on entry
    /// are irrelevant and on exit unspecified.
    ///
    /// # Panics
    /// Implementations panic when `src`/`dst`/`scratch` lengths disagree
    /// with the plan — the engines validate before calling.
    fn run(&self, src: &[T], dst: &mut [T], scratch: &mut [T]);

    /// Scratch elements `run` requires: 0 for scatter executables and
    /// for the native one-sweep kernel of a structured plan, `n` for the
    /// native three-sweep kernel, `2n` for the IR interpreter (its five
    /// unfused steps ping-pong between two temporaries).
    fn scratch_len(&self) -> usize;

    /// Number of elements one run permutes.
    fn len(&self) -> usize;

    /// True for the empty permutation (no backend currently prepares
    /// one — `ExecPlan` lengths are at least `w²` — but the pair keeps
    /// the trait's length API conventional).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The route this executable implements.
    fn route(&self) -> Route;

    /// Name of the backend that prepared this executable.
    fn backend_name(&self) -> &'static str;

    /// The kernel config the executable was prepared with.
    fn kernel_config(&self) -> KernelConfig;

    /// Downcast seam, so backend-specific tooling (e.g. the native
    /// backend's sweep timer) can recover its concrete executor from a
    /// cached plan without the engine naming the type.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// A registered execution backend: a named factory from backend-neutral
/// plans to [`Executable`]s.
///
/// Implementations are zero-sized or cheaply shareable (`Arc<dyn
/// Backend<T>>` is the engine-side handle); all real state lives in the
/// executables they prepare.
pub trait Backend<T>: Send + Sync {
    /// Stable registry name (`"native"`, `"interp"`, ...) — what
    /// `HMM_BACKEND` selects and what `EngineStats::backend` reports.
    fn name(&self) -> &'static str;

    /// Compile `plan` into an executable under `config`. Scheduled plans
    /// must be validated (`PlanIr::validate`) before use — a corrupt IR
    /// is rejected with a typed error, never executed.
    fn prepare(&self, plan: ExecPlan<'_>, config: KernelConfig) -> Result<Box<dyn Executable<T>>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;

    #[test]
    fn route_and_len_follow_the_plan_arm() {
        let p = families::random(1 << 10, 1);
        let plan = ExecPlan::Scatter(&p);
        assert_eq!(plan.route(), Route::Scatter);
        assert_eq!(plan.len(), 1 << 10);
        assert!(!plan.is_empty());

        let ir = PlanIr::build(&p, 32).unwrap();
        let plan = ExecPlan::Scheduled(&ir);
        assert_eq!(plan.route(), Route::Scheduled);
        assert_eq!(plan.len(), 1 << 10);
    }
}
