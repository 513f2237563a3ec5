//! Grid-set serialization — the analogue of AutoGrid's `.map` files.
//!
//! AutoGrid runs once per receptor and writes its maps to disk; docking
//! campaigns then reuse them across millions of ligands. This module
//! stores a whole [`GridSet`] in one binary file:
//!
//! ```text
//! magic  "MDKGRID2"                      8 bytes
//! npts   [u32; 3]   spacing f32          origin [f32; 3]
//! built  [u8; NUM_MAPS]
//! data   little-endian f32 × NUM_MAPS × npts-product
//! ```
//!
//! The magic's last byte is the *revision*, bumped whenever the maps a
//! builder writes change bits, not only when the layout does. Revision 2
//! is the points-major builder, whose wide-level maps differ from
//! revision 1's in the last bits; a revision-1 file is refused
//! ([`GridIoError::Revision`]) rather than reloaded as if this binary had
//! built it, so a spill tier never mixes two builders' maps.
//!
//! Everything is validated before the data is read (magic, dimension
//! sanity, exact file length), so a truncated or foreign file fails
//! loudly instead of docking against garbage. The map data streams
//! through one fixed 64 KiB buffer both ways: a save or a load never
//! holds a second copy of the grid.

use std::io::{Read, Write};
use std::path::Path;

use mudock_mol::Vec3;

use crate::dims::GridDims;
use crate::map::{GridSet, NUM_MAPS};

/// File magic: `MDKGRID` followed by the format revision digit.
const MAGIC: &[u8; 8] = b"MDKGRID2";
/// Bytes before the map data: magic, npts, spacing, origin, built flags.
const HEADER_LEN: u64 = 8 + 12 + 4 + 12 + NUM_MAPS as u64;
/// Map values per trip through the fixed 64 KiB I/O buffer.
const BUF_VALUES: usize = 64 * 1024 / 4;

/// Errors loading or saving a grid-set file.
#[derive(Debug)]
pub enum GridIoError {
    Io(std::io::Error),
    /// Not a mudock grid file (bad magic).
    BadMagic,
    /// A mudock grid file of another format revision (the magic's last
    /// digit), written by a builder whose maps this binary does not
    /// reproduce bit for bit.
    Revision(u8),
    /// Header fields are out of sane ranges.
    BadHeader(String),
    /// File size does not match the header's dimensions.
    Truncated {
        expected: usize,
        got: usize,
    },
}

impl std::fmt::Display for GridIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridIoError::Io(e) => write!(f, "grid i/o: {e}"),
            GridIoError::BadMagic => write!(f, "not a mudock grid file"),
            GridIoError::Revision(rev) => write!(
                f,
                "grid file of revision {rev}, this build reads revision {}: rebuild the maps",
                MAGIC[7] - b'0'
            ),
            GridIoError::BadHeader(m) => write!(f, "bad grid header: {m}"),
            GridIoError::Truncated { expected, got } => {
                write!(
                    f,
                    "grid file truncated: expected {expected} data bytes, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for GridIoError {}

impl From<std::io::Error> for GridIoError {
    fn from(e: std::io::Error) -> Self {
        GridIoError::Io(e)
    }
}

/// Write a grid set to `path`.
pub fn save(gs: &GridSet, path: &Path) -> Result<(), GridIoError> {
    let mut w = std::fs::File::create(path)?;
    let mut buf = Vec::with_capacity(4 * BUF_VALUES);
    buf.extend_from_slice(MAGIC);
    for n in gs.dims.npts {
        buf.extend_from_slice(&n.to_le_bytes());
    }
    for c in [
        gs.dims.spacing,
        gs.dims.origin.x,
        gs.dims.origin.y,
        gs.dims.origin.z,
    ] {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf.extend(gs.built.iter().map(|&b| b as u8));
    w.write_all(&buf)?;
    for values in gs.data.chunks(BUF_VALUES) {
        buf.clear();
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Open `path` and validate everything but the data: magic, header
/// sanity, exact on-disk length. Returns the file positioned at the
/// built flags, and the dimensions.
fn open_checked(path: &Path) -> Result<(std::fs::File, GridDims), GridIoError> {
    let mut file = std::fs::File::open(path)?;
    let total = file.metadata()?.len();
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(match magic.strip_prefix(b"MDKGRID") {
            Some(&[rev]) if rev.is_ascii_digit() => GridIoError::Revision(rev - b'0'),
            _ => GridIoError::BadMagic,
        });
    }
    let mut fields = [0u8; 28];
    file.read_exact(&mut fields)?;
    let word = |i: usize| [0, 1, 2, 3].map(|b| fields[4 * i + b]);
    let npts = [0, 1, 2].map(|i| u32::from_le_bytes(word(i)));
    let [spacing, ox, oy, oz] = [3, 4, 5, 6].map(|i| f32::from_le_bytes(word(i)));

    if npts.iter().any(|&n| !(2..=4096).contains(&n)) {
        return Err(GridIoError::BadHeader(format!("npts {npts:?}")));
    }
    if !(spacing.is_finite() && spacing > 0.0 && spacing < 100.0) {
        return Err(GridIoError::BadHeader(format!("spacing {spacing}")));
    }
    if ![ox, oy, oz].iter().all(|c| c.is_finite()) {
        return Err(GridIoError::BadHeader("non-finite origin".into()));
    }

    let dims = GridDims {
        npts,
        spacing,
        origin: Vec3::new(ox, oy, oz),
    };
    let expected = dims.total() * NUM_MAPS * 4;
    let got = total.saturating_sub(HEADER_LEN) as usize;
    if got != expected {
        return Err(GridIoError::Truncated { expected, got });
    }
    Ok((file, dims))
}

/// Load a grid set from `path`, validating structure and size.
pub fn load(path: &Path) -> Result<GridSet, GridIoError> {
    let (mut file, dims) = open_checked(path)?;
    let mut gs = GridSet::empty(dims);
    let mut built = [0u8; NUM_MAPS];
    file.read_exact(&mut built)?;
    for (b, &byte) in gs.built.iter_mut().zip(&built) {
        *b = byte != 0;
    }
    let mut buf = vec![0u8; 4 * BUF_VALUES];
    for values in gs.data.chunks_mut(BUF_VALUES) {
        let bytes = &mut buf[..4 * values.len()];
        file.read_exact(bytes)?;
        for (v, b) in values.iter_mut().zip(bytes.chunks_exact(4)) {
            *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    Ok(gs)
}

/// Validate a grid file without reading its data: magic, header sanity,
/// and exact on-disk length. Returns the dimensions on success.
///
/// This is the cheap structural check a serve node runs over every file
/// in its spill directory at startup (warm restart): a multi-megabyte
/// map file costs one header read plus an `fstat`, so rescanning a full
/// spill tier is O(files), not O(bytes). A file that passes `probe` can
/// still fail [`load`] only through an I/O error, never through a
/// format error — both functions apply the same validation.
pub fn probe(path: &Path) -> Result<GridDims, GridIoError> {
    open_checked(path).map(|(_, dims)| dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GridBuilder;
    use mudock_ff::types::AtomType;
    use mudock_mol::{Atom, Molecule};

    fn sample() -> GridSet {
        let mut rec = Molecule::new("r");
        rec.atoms.push(Atom::new(Vec3::ZERO, AtomType::OA, -0.3));
        rec.atoms
            .push(Atom::new(Vec3::new(2.0, 0.0, 0.0), AtomType::C, 0.1));
        // 17³ points × 16 maps: several trips through the I/O buffer and
        // a partial last one.
        let dims = GridDims::centered(Vec3::ZERO, 3.0, 0.4);
        GridBuilder::new(&rec, dims)
            .with_types(&[AtomType::C, AtomType::HD])
            .build_scalar()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mudock-grid-io-{}-{name}", std::process::id()))
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let gs = sample();
        assert!(gs.data.len() > BUF_VALUES && !gs.data.len().is_multiple_of(BUF_VALUES));
        let path = tmp("roundtrip.grid");
        save(&gs, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.dims, gs.dims);
        assert_eq!(back.built, gs.built);
        assert_eq!(back.data.len(), gs.data.len());
        for (a, b) in gs.data.iter().zip(&back.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_foreign_files() {
        let path = tmp("foreign.grid");
        std::fs::write(&path, b"definitely not a grid file").unwrap();
        assert!(matches!(load(&path), Err(GridIoError::BadMagic)));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn refuses_a_file_of_another_revision_by_name() {
        let gs = sample();
        let path = tmp("revision1.grid");
        save(&gs, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], b"MDKGRID2");
        // The same maps as the previous builder's format would label them.
        bytes[7] = b'1';
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, GridIoError::Revision(1)), "{err:?}");
        assert!(err.to_string().contains("revision 1"), "{err}");
        assert!(matches!(probe(&path), Err(GridIoError::Revision(1))));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_truncation() {
        let gs = sample();
        let path = tmp("truncated.grid");
        save(&gs, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 17]).unwrap();
        assert!(matches!(load(&path), Err(GridIoError::Truncated { .. })));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_corrupt_header() {
        let gs = sample();
        let path = tmp("corrupt.grid");
        save(&gs, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Stomp npts[0] with an absurd value.
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(GridIoError::BadHeader(_))));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn probe_accepts_valid_and_rejects_damaged_files() {
        let gs = sample();
        let path = tmp("probe.grid");
        save(&gs, &path).unwrap();
        assert_eq!(probe(&path).unwrap(), gs.dims);

        // Truncation is caught from the length alone — no data read.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(probe(&path), Err(GridIoError::Truncated { .. })));

        // Foreign bytes are caught by the magic.
        std::fs::write(&path, b"junkjunkjunkjunkjunkjunkjunkjunkjunk").unwrap();
        assert!(matches!(probe(&path), Err(GridIoError::BadMagic)));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn loaded_maps_sample_identically() {
        let gs = sample();
        let path = tmp("sample.grid");
        save(&gs, &path).unwrap();
        let back = load(&path).unwrap();
        for p in [
            Vec3::ZERO,
            Vec3::new(1.3, -0.7, 0.4),
            Vec3::new(-2.0, 2.0, 1.0),
        ] {
            assert_eq!(
                gs.sample(AtomType::C.idx(), p).to_bits(),
                back.sample(AtomType::C.idx(), p).to_bits()
            );
        }
        let _ = std::fs::remove_file(path);
    }
}
