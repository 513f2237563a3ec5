//! # mudock-molio — molecule I/O and dataset synthesis
//!
//! Two jobs:
//!
//! * [`pdbqt`] — read/write the PDBQT subset the pipeline consumes
//!   (AutoDock's input format: coordinates + partial charges + atom types,
//!   with explicit bonds and rotatable-bond markers);
//! * [`synth`] — deterministic generators standing in for the datasets the
//!   paper evaluates on: a MEDIATE-like screening set
//!   ([`synth::mediate_like_set`]) and a PDBbind-1a30-like single complex
//!   ([`synth::complex_1a30_like`]). [`synth`]'s module docs say why
//!   the substitution preserves the paper's behaviour.

pub mod pdbqt;
pub mod stream;
pub mod synth;

pub use pdbqt::{parse, perceive_bonds, write, ParseError};
pub use stream::{parse_models, split_models, MediateStream};
pub use synth::{
    complex_1a30_like, mediate_like_set, synthetic_ligand, synthetic_receptor, LigandSpec,
};
