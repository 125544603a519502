//! The seeded 20-module program that `sepbuild` and `serve` build:
//! generated sequential translation units (each touches only its own
//! namespaced globals, so every link obligation is discharged) linked
//! against the CImp lock object.

use ccc_analysis::sepcomp::SepUnit;
use ccc_cimp::CImpModule;
use ccc_core::mem::GlobalEnv;
use ccc_fuzz::spec::lower_prefixed;
use ccc_fuzz::{gen_program, FuzzProgram};

pub const MODULES: usize = 20;
/// Generator size of each unit.
pub const UNIT_SIZE: u32 = 14;

/// The lock object every unit links against.
pub struct Object {
    pub src: CImpModule,
    pub tgt: CImpModule,
    pub ge: GlobalEnv,
}

impl Object {
    pub fn lock() -> Object {
        let (src, ge) = ccc_sync::lock::lock_spec("L");
        let tgt = ccc_compiler::driver::id_trans(&src);
        Object { src, tgt, ge }
    }
}

/// The generator size of each unit, by slot. Compile cost tracks a
/// program's size closely, so drawing every program to the same size
/// profile keeps the build's cost nearly independent of the seed.
const SIZE_PROFILE: [usize; MODULES] = [
    1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10, 12, 14, 16, 18,
];

/// One sequential program per slot, of the slot's profile size, from
/// the seeded generator stream `salt`.
fn sequential(seed: u64, salt: u64) -> Vec<FuzzProgram> {
    let base = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt << 32);
    let mut stream = (0u64..)
        .map(|k| gen_program(base.wrapping_add(k), UNIT_SIZE))
        .filter(FuzzProgram::is_sequential);
    let mut pending: Vec<FuzzProgram> = Vec::new();
    SIZE_PROFILE
        .iter()
        .map(|&size| {
            if let Some(i) = pending.iter().position(|p| p.size() == size) {
                return pending.swap_remove(i);
            }
            loop {
                let p = stream.next().expect("the generator stream is endless");
                if p.size() == size {
                    return p;
                }
                pending.push(p);
            }
        })
        .collect()
}

/// Lowers `p` as unit `slot` of the program.
pub fn unit(slot: usize, p: &FuzzProgram) -> SepUnit {
    let base = 0x2000 + 0x100 * slot as u64;
    let (module, ge, entries) = lower_prefixed(p, &format!("m{slot}_"), base);
    SepUnit {
        name: format!("m{slot}"),
        module,
        ge,
        entries,
    }
}

/// The program's [`MODULES`] units.
pub fn units(seed: u64) -> Vec<SepUnit> {
    sequential(seed, 0)
        .iter()
        .enumerate()
        .map(|(slot, p)| unit(slot, p))
        .collect()
}

/// One replacement per slot, drawn from a stream disjoint from the
/// program's own: editing slot `k` swaps in `variants(seed)[k]`.
pub fn variants(seed: u64) -> Vec<SepUnit> {
    sequential(seed, 1)
        .iter()
        .enumerate()
        .map(|(slot, p)| unit(slot, p))
        .collect()
}
