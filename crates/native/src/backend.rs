//! The native backend and the process backend registry.
//!
//! [`NativeBackend`] wraps this crate's two executors — the scheduled
//! [`NativeScheduled`] and the parallel scatter kernel — as
//! one registered [`Backend`], so the engines in [`crate::plan`] dispatch
//! every execution through `hmm_backend`'s traits and never name a
//! concrete executor. The registry ([`by_name`], [`backend_names`]) also
//! carries [`InterpBackend`], the deterministic sweep-IR interpreter from
//! `hmm-backend`, which the conformance suite pins byte-identical against
//! this backend.
//!
//! [`default_backend`] honours the `HMM_BACKEND` environment variable
//! (strict, warn-once via [`hmm_backend::env::parse_env`]) so a whole
//! process — tests, benches, the CLI — can be pointed at a different
//! backend without a recompile; unset or invalid selects `"native"`.

use crate::scheduled::NativeScheduled;
use hmm_backend::env::parse_env;
use hmm_backend::{Backend, ExecPlan, Executable, InterpBackend, KernelConfig, Route};
use hmm_perm::Permutation;
use hmm_plan::Result;
use std::sync::Arc;

/// Environment variable selecting the process-default backend by registry
/// name (`native`, `interp`). Invalid names warn once and keep the
/// default, matching `HMM_NATIVE_SIMD`/`HMM_NATIVE_THREADS` strictness.
pub const BACKEND_ENV: &str = "HMM_BACKEND";

/// Registry name of [`NativeBackend`].
pub const NATIVE_BACKEND_NAME: &str = "native";

/// The CPU-parallel backend: scheduled plans execute as
/// [`NativeScheduled`] (one tiled sweep for a structured plan under
/// computed-index, three fused sweeps otherwise), scatter plans as the
/// parallel scatter kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeBackend;

impl<T: Copy + Send + Sync + Default + 'static> Backend<T> for NativeBackend {
    fn name(&self) -> &'static str {
        NATIVE_BACKEND_NAME
    }

    fn prepare(&self, plan: ExecPlan<'_>, config: KernelConfig) -> Result<Box<dyn Executable<T>>> {
        match plan {
            ExecPlan::Scatter(p) => Ok(Box::new(NativeScatterExec {
                perm: p.clone(),
                config,
            })),
            // `from_plan_with` validates the IR; a corrupt plan is a
            // typed error here, never a mis-gather at run time.
            ExecPlan::Scheduled(ir) => Ok(Box::new(NativeExec {
                sched: NativeScheduled::from_plan_with(ir, config)?,
            })),
        }
    }
}

/// A prepared scheduled plan on the native backend. Non-generic (the
/// sweeps are generic per call), so [`as_native_scheduled`] can downcast
/// to it for any element type.
pub struct NativeExec {
    sched: NativeScheduled,
}

impl NativeExec {
    /// The underlying scheduled executor — the seam backend-specific tooling
    /// (the bench's per-sweep timer) reaches through [`as_native_scheduled`].
    pub fn scheduled(&self) -> &NativeScheduled {
        &self.sched
    }
}

impl<T: Copy + Send + Sync + Default + 'static> Executable<T> for NativeExec {
    fn run(&self, src: &[T], dst: &mut [T], scratch: &mut [T]) {
        self.sched.run_with_scratch(src, dst, scratch);
    }

    fn scratch_len(&self) -> usize {
        self.sched.scratch_len()
    }

    fn len(&self) -> usize {
        self.sched.len()
    }

    fn route(&self) -> Route {
        Route::Scheduled
    }

    fn backend_name(&self) -> &'static str {
        NATIVE_BACKEND_NAME
    }

    fn kernel_config(&self) -> KernelConfig {
        self.sched.kernel_config()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A prepared scatter plan on the native backend: the parallel
/// single-pass scatter kernel, no scratch.
pub struct NativeScatterExec {
    perm: Permutation,
    config: KernelConfig,
}

impl<T: Copy + Send + Sync + Default + 'static> Executable<T> for NativeScatterExec {
    fn run(&self, src: &[T], dst: &mut [T], _scratch: &mut [T]) {
        crate::scatter::scatter_permute(src, &self.perm, dst);
    }

    fn scratch_len(&self) -> usize {
        0
    }

    fn len(&self) -> usize {
        self.perm.len()
    }

    fn route(&self) -> Route {
        Route::Scatter
    }

    fn backend_name(&self) -> &'static str {
        NATIVE_BACKEND_NAME
    }

    fn kernel_config(&self) -> KernelConfig {
        self.config
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Every registered backend name, in preference order.
pub fn backend_names() -> [&'static str; 2] {
    [
        NATIVE_BACKEND_NAME,
        hmm_backend::interp::INTERP_BACKEND_NAME,
    ]
}

/// Resolve a registry name to a backend handle. `None` for unknown names.
pub fn by_name<T: Copy + Send + Sync + Default + 'static>(
    name: &str,
) -> Option<Arc<dyn Backend<T>>> {
    match name {
        NATIVE_BACKEND_NAME => Some(Arc::new(NativeBackend)),
        hmm_backend::interp::INTERP_BACKEND_NAME => Some(Arc::new(InterpBackend)),
        _ => None,
    }
}

/// The process-default backend: `HMM_BACKEND` when set to a registered
/// name (an unknown name warns once and is ignored), else native.
pub fn default_backend<T: Copy + Send + Sync + Default + 'static>() -> Arc<dyn Backend<T>> {
    parse_env(BACKEND_ENV, "one of: native, interp", |v| {
        by_name::<T>(v.trim())
    })
    .unwrap_or_else(|| Arc::new(NativeBackend))
}

/// Engine on the default backend with the γ threshold pinned so every
/// plan takes `route` — the forcing seam the conformance, structured,
/// and differential suites previously each hand-rolled.
pub fn forced_engine<T: Copy + Send + Sync + Default + 'static>(
    width: usize,
    route: Route,
) -> crate::plan::SharedEngine<T> {
    forced_engine_on(NATIVE_BACKEND_NAME, width, route)
        .expect("the native backend is always registered")
}

/// [`forced_engine`] on a named registry backend; `None` for unknown
/// names.
pub fn forced_engine_on<T: Copy + Send + Sync + Default + 'static>(
    name: &str,
    width: usize,
    route: Route,
) -> Option<crate::plan::SharedEngine<T>> {
    let engine = crate::plan::SharedEngine::with_backend(width, by_name::<T>(name)?);
    engine.set_gamma_threshold(match route {
        Route::Scheduled => 0.0,
        Route::Scatter => f64::INFINITY,
    });
    Some(engine)
}

/// Downcast a plan's executable to the native scheduled executor, when the
/// plan is a scheduled plan prepared by [`NativeBackend`]. `None` for
/// scatter plans and for other backends' executables.
pub fn as_native_scheduled<T>(plan: &crate::plan::PermutePlan<T>) -> Option<&NativeScheduled> {
    plan.executable()
        .as_any()
        .downcast_ref::<NativeExec>()
        .map(NativeExec::scheduled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;
    use hmm_plan::PlanIr;

    #[test]
    fn registry_resolves_every_listed_name() {
        for name in backend_names() {
            let b = by_name::<u32>(name).unwrap_or_else(|| panic!("{name} not resolvable"));
            assert_eq!(b.name(), name);
        }
        assert!(by_name::<u32>("no-such-backend").is_none());
    }

    #[test]
    fn native_executables_match_the_reference_on_both_routes() {
        let n = 1 << 12;
        let p = families::random(n, 5);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut want = vec![0u32; n];
        p.permute(&src, &mut want).unwrap();

        let backend = NativeBackend;
        let scatter: Box<dyn Executable<u32>> = backend
            .prepare(ExecPlan::Scatter(&p), KernelConfig::default())
            .unwrap();
        let mut dst = vec![0u32; n];
        scatter.run(&src, &mut dst, &mut []);
        assert_eq!(dst, want);
        assert_eq!(scatter.scratch_len(), 0);

        let ir = PlanIr::build(&p, 32).unwrap();
        let sched: Box<dyn Executable<u32>> = backend
            .prepare(ExecPlan::Scheduled(&ir), KernelConfig::default())
            .unwrap();
        let mut scratch = vec![0u32; sched.scratch_len()];
        dst.fill(0);
        sched.run(&src, &mut dst, &mut scratch);
        assert_eq!(dst, want);
        assert_eq!(sched.backend_name(), "native");
        assert_eq!(sched.route(), Route::Scheduled);
    }

    #[test]
    fn forced_engines_pin_the_route_per_backend() {
        let n = 1 << 10;
        let p = families::random(n, 3);
        let src: Vec<u32> = (0..n as u32).collect();
        let mut want = vec![0u32; n];
        p.permute(&src, &mut want).unwrap();
        for name in backend_names() {
            for route in [Route::Scatter, Route::Scheduled] {
                let engine = forced_engine_on::<u32>(name, 32, route).unwrap();
                let plan = engine.plan(&p).unwrap();
                assert_eq!(plan.route(), route, "{name}");
                let mut dst = vec![0u32; n];
                engine.run_plan(&plan, &src, &mut dst);
                assert_eq!(dst, want, "{name} {route:?}");
            }
        }
        assert!(forced_engine_on::<u32>("bogus", 32, Route::Scatter).is_none());
    }

    #[test]
    fn native_scheduled_plans_downcast_and_interp_plans_do_not() {
        let n = 1 << 10;
        let p = families::random(n, 8);
        let native = forced_engine::<u32>(32, Route::Scheduled);
        assert!(as_native_scheduled(&native.plan(&p).unwrap()).is_some());
        let scatter = forced_engine::<u32>(32, Route::Scatter);
        assert!(as_native_scheduled(&scatter.plan(&p).unwrap()).is_none());
        let interp = forced_engine_on::<u32>("interp", 32, Route::Scheduled).unwrap();
        assert!(as_native_scheduled(&interp.plan(&p).unwrap()).is_none());
    }
}
