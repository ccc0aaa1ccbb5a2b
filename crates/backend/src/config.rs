//! Tuning knobs for the sweep kernels — the `KernelConfig` seam.
//!
//! The seed hard-coded the staging-buffer budget (256 KB) and the
//! transpose tile side (64) for one cache size, and its inner loops were
//! scalar. This module centralises those constants, adds the
//! double-buffering depth and the SIMD/prefetch toggles, and gives every
//! front door (the native executor, the engines, the queue drainers, and
//! every [`crate::traits::Backend`]) one place to read them from:
//!
//! * [`KernelConfig::default`] — the seed's values, SIMD on;
//! * [`KernelConfig::from_env`] — the default with [`SIMD_ENV`]
//!   (`HMM_NATIVE_SIMD`) and [`COMPUTED_INDEX_ENV`]
//!   (`HMM_NATIVE_COMPUTED_INDEX`) applied, so a deployment can force
//!   the scalar reference path or the materialized-map gather path
//!   without recompiling;
//! * [`KernelConfig::global`] — the process-wide snapshot engines use
//!   unless a caller threads an explicit config through;
//! * [`KernelConfig::scalar`] — the always-available scalar reference:
//!   no SIMD, no prefetch, single staging buffer. The differential suite
//!   uses it as the correctness oracle for every other config point.
//!
//! The config is backend-neutral on purpose. Both lowerings read
//! `computed_index` once, when a plan is prepared: the CPU executor to
//! pick its one kernel, the sweep-kernel IR
//! ([`crate::sweep::SweepIr`]) to elide the map copies. The CPU
//! executor's three-sweep kernel also reads
//! `stage_bytes`/`tile`/`depth`/`prefetch`, and every CPU kernel reads
//! `simd`. The IR lowering reads `tile` as the tiled transpose's side,
//! so a tile set here travels to the WGSL codegen and the interpreter
//! unchanged.

use crate::env::parse_env;
use std::sync::OnceLock;

/// Environment variable: set to `0`/`off`/`false` to disable the SIMD
/// kernel tiers process-wide, `1`/`on`/`true` to leave them enabled
/// (also the unset default; the `core::arch` tier additionally requires
/// runtime CPU support). Anything else is loudly ignored — like
/// `HMM_NATIVE_THREADS`, a typo'd override must never silently select
/// the wrong kernels.
pub const SIMD_ENV: &str = "HMM_NATIVE_SIMD";

/// Environment variable: set to `0`/`off`/`false` to disable the
/// computed-index (affine-fold) kernel path for structured plans —
/// forcing every gather sweep back onto materialized map loads — or
/// `1`/`on`/`true` to leave it enabled (also the unset default). Parsed
/// with the same strict warn-once rules as [`SIMD_ENV`]: a typo'd value
/// never silently selects a kernel path.
pub const COMPUTED_INDEX_ENV: &str = "HMM_NATIVE_COMPUTED_INDEX";

/// Default per-worker staging-buffer budget in bytes (the seed's
/// `262_144`): one gathered input block must fit in the last-level
/// private cache alongside the output tile being written.
pub const DEFAULT_STAGE_BYTES: usize = 262_144;

/// Default blocked-transpose tile side in elements (the seed's `64`):
/// 64×64 u32 tiles are 16 KB, comfortably L1/L2-resident.
pub const DEFAULT_TILE: usize = 64;

/// Default staging-buffer count per worker: two, so block *k+1* streams
/// into one buffer while block *k* transposes out of the other.
pub const DEFAULT_STAGING_DEPTH: usize = 2;

/// Tuning parameters for the three fused sweep kernels.
///
/// All fields are plain data; a config is cheap to copy and carries no
/// invariants beyond "non-zero where zero makes no sense" — the kernels
/// clamp degenerate values (`tile` to ≥ 8, `depth` to 1..=2,
/// `stage_bytes` to at least one input row) instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Per-worker staging-buffer budget in bytes. Bounds how many input
    /// rows one gather block of the three-sweep kernel stages before
    /// transposing out ([`DEFAULT_STAGE_BYTES`] unless a caller sets
    /// it). The one tiled sweep ignores it.
    pub stage_bytes: usize,
    /// Blocked-transpose tile side in elements. Also the tile side the
    /// sweep-kernel IR lowers into [`crate::sweep::SweepKernel`]'s tiled
    /// transpose (clamped there to the matrix's smaller dimension).
    pub tile: usize,
    /// Staging buffers per worker: `2` double-buffers the gather and
    /// transpose stages, `1` degenerates to the strict
    /// gather-then-transpose alternation (a config point the
    /// differential suite exercises). Values outside `1..=2` are
    /// clamped.
    pub depth: usize,
    /// Enable the vectorized kernel tiers: the width-specialized
    /// no-bounds-check chunked paths everywhere, plus the `core::arch`
    /// AVX2 paths on x86-64 hosts that support them (runtime-detected).
    /// `false` selects the scalar reference kernels.
    pub simd: bool,
    /// Software-prefetch the gather map one block ahead while the
    /// current block is being gathered.
    pub prefetch: bool,
    /// Compute gather indices in registers (the affine XOR-fold) for
    /// plans that carry verified descriptors, instead of loading the
    /// materialized map alongside the data. Read once, when a plan is
    /// prepared: on the native backend such a plan then runs as one
    /// tiled sweep and holds no map. Plans without descriptors
    /// (König-colored) always use map loads regardless of this flag.
    pub computed_index: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            stage_bytes: DEFAULT_STAGE_BYTES,
            tile: DEFAULT_TILE,
            depth: DEFAULT_STAGING_DEPTH,
            simd: true,
            prefetch: true,
            computed_index: true,
        }
    }
}

impl KernelConfig {
    /// The default config with [`SIMD_ENV`] applied: a disabling value
    /// (`0`/`off`/`false`) turns both the SIMD tiers and the prefetch
    /// hints off (the full scalar reference pipeline), an enabling value
    /// (`1`/`on`/`true`) or unset keeps the default, and anything else
    /// warns once (via [`crate::env::parse_env`]) and keeps the default.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(simd) = parse_env(
            SIMD_ENV,
            "0/1/on/off/true/false; keeping SIMD enabled",
            parse_simd_override,
        ) {
            cfg.simd = simd;
            cfg.prefetch = simd;
        }
        if let Some(computed) = parse_env(
            COMPUTED_INDEX_ENV,
            "0/1/on/off/true/false; keeping computed-index enabled",
            parse_simd_override,
        ) {
            cfg.computed_index = computed;
        }
        cfg
    }

    /// The process-wide config: [`KernelConfig::from_env`] evaluated
    /// once, at first use. Callers that need a different config per
    /// plan thread one through explicitly instead.
    pub fn global() -> Self {
        static GLOBAL: OnceLock<KernelConfig> = OnceLock::new();
        *GLOBAL.get_or_init(Self::from_env)
    }

    /// The scalar reference configuration: no SIMD, no prefetch, one
    /// staging buffer, map-loaded indices (no computed-index fold).
    /// This is the correctness oracle every vectorized or computed
    /// config point is differentially tested against, and the "before"
    /// side of the bench's `engine_simd_off` rows.
    pub fn scalar() -> Self {
        KernelConfig {
            simd: false,
            prefetch: false,
            depth: 1,
            computed_index: false,
            ..Self::default()
        }
    }
}

/// Parse an `HMM_NATIVE_SIMD` override: `1`/`on`/`true` enable,
/// `0`/`off`/`false` disable (ASCII case-insensitive, surrounding
/// whitespace ignored); anything else is invalid and yields `None`.
/// Factored out of [`KernelConfig::from_env`] so the parse rules are
/// testable without racing on the process-global environment (the same
/// split `HMM_NATIVE_THREADS` uses).
fn parse_simd_override(v: &str) -> Option<bool> {
    match v.trim().to_ascii_lowercase().as_str() {
        "1" | "on" | "true" => Some(true),
        "0" | "off" | "false" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_seed_constants() {
        let cfg = KernelConfig::default();
        assert_eq!(cfg.stage_bytes, 262_144);
        assert_eq!(cfg.tile, 64);
        assert_eq!(cfg.depth, 2);
        assert!(cfg.simd);
        assert!(cfg.prefetch);
        assert!(cfg.computed_index);
    }

    #[test]
    fn scalar_is_the_reference_point() {
        let cfg = KernelConfig::scalar();
        assert!(!cfg.simd);
        assert!(!cfg.prefetch);
        assert!(!cfg.computed_index);
        assert_eq!(cfg.depth, 1);
        assert_eq!(cfg.stage_bytes, DEFAULT_STAGE_BYTES);
    }

    #[test]
    fn simd_override_parse_matrix() {
        // Disabling spellings — the old code only honored the literal "0",
        // so "off"/"false" silently *enabled* SIMD.
        for v in ["0", "off", "false", "OFF", "False", " 0 ", "\toff\n"] {
            assert_eq!(parse_simd_override(v), Some(false), "{v:?}");
        }
        for v in ["1", "on", "true", "ON", "True", " 1 "] {
            assert_eq!(parse_simd_override(v), Some(true), "{v:?}");
        }
        // Invalid values are rejected (from_env warns and keeps the
        // default) rather than being treated as "enable".
        for v in ["", "2", "yes", "no", "garbage", "0x1", "-1"] {
            assert_eq!(parse_simd_override(v), None, "{v:?}");
        }
    }
}
