//! Compact binary persistence for trained models.
//!
//! The paper trains policies for hours (Table 7) and then serves them at
//! query time; a deployable system must be able to save a trained model
//! and load it in a different process. No general-purpose serialization
//! format crate is available offline, so this module defines a minimal
//! length-prefixed, versioned binary codec on top of `bytes`.
//!
//! Layout: a 4-byte magic, a u16 version, then type-specific payload.
//! All integers little-endian; floats as IEEE-754 bits.

use crate::{Activation, GruCell, Linear, Mlp};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic prefix of every model file ("SSUB").
pub const MAGIC: [u8; 4] = *b"SSUB";
/// Current codec version.
pub const VERSION: u16 = 1;

/// Errors produced when decoding a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The magic prefix did not match.
    BadMagic,
    /// File written by an unsupported codec version.
    UnsupportedVersion(u16),
    /// Buffer ended before the payload was complete.
    Truncated,
    /// A tag byte had no corresponding variant.
    InvalidTag(u8),
    /// A declared dimension was implausible (corruption guard).
    InvalidDimension(u64),
    /// A well-formed model whose input dimension does not fit its use:
    /// the reader needs `expected` inputs where the file declares `found`.
    DimensionMismatch {
        /// The dimension the reader requires.
        expected: u64,
        /// The dimension the file declares.
        found: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a SimSub model file (bad magic)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported model version {v}"),
            CodecError::Truncated => write!(f, "model file truncated"),
            CodecError::InvalidTag(t) => write!(f, "invalid tag byte {t}"),
            CodecError::InvalidDimension(d) => write!(f, "implausible dimension {d}"),
            CodecError::DimensionMismatch { expected, found } => {
                write!(f, "model has input dimension {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Upper bound on any serialized dimension; guards against allocating
/// absurd buffers when reading corrupt files.
const MAX_DIM: u64 = 1 << 24;

/// Streaming encoder over a growable byte buffer.
pub struct Encoder {
    buf: BytesMut,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// Starts a buffer with the magic + version header.
    pub fn new() -> Self {
        let mut buf = BytesMut::with_capacity(256);
        buf.put_slice(&MAGIC);
        buf.put_u16_le(VERSION);
        Self { buf }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a little-endian f64.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Length-prefixed f64 slice.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.buf.put_f64_le(x);
        }
    }

    /// Finalizes the buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Streaming decoder with bounds checking.
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    /// Validates the header and positions the cursor after it.
    pub fn new(data: &[u8]) -> Result<Self, CodecError> {
        let mut buf = Bytes::copy_from_slice(data);
        if buf.remaining() < 6 {
            return Err(CodecError::Truncated);
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        Ok(Self { buf })
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        if self.buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        Ok(self.buf.get_u8())
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        if self.buf.remaining() < 8 {
            return Err(CodecError::Truncated);
        }
        Ok(self.buf.get_u64_le())
    }

    /// Reads a little-endian f64.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        if self.buf.remaining() < 8 {
            return Err(CodecError::Truncated);
        }
        Ok(self.buf.get_f64_le())
    }

    /// Reads a dimension with a plausibility bound (corruption guard).
    pub fn get_dim(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        if v > MAX_DIM {
            return Err(CodecError::InvalidDimension(v));
        }
        Ok(v as usize)
    }

    /// Length-prefixed f64 slice.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.get_dim()?;
        if self.buf.remaining() < len * 8 {
            return Err(CodecError::Truncated);
        }
        Ok((0..len).map(|_| self.buf.get_f64_le()).collect())
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        !self.buf.has_remaining()
    }
}

/// Types that can round-trip through the binary codec.
pub trait BinaryCodec: Sized {
    /// Appends this value to the encoder.
    fn encode(&self, enc: &mut Encoder);
    /// Reads a value back.
    fn decode(dec: &mut Decoder) -> Result<Self, CodecError>;

    /// Serializes into a standalone byte buffer (with header).
    fn to_bytes(&self) -> Bytes {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Deserializes from a standalone buffer.
    fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(data)?;
        Self::decode(&mut dec)
    }

    /// Writes the model to a file.
    fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a model from a file.
    fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let data = std::fs::read(path)?;
        Self::from_bytes(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl Activation {
    fn tag(self) -> u8 {
        match self {
            Activation::Relu => 0,
            Activation::Sigmoid => 1,
            Activation::Tanh => 2,
            Activation::Identity => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => Activation::Relu,
            1 => Activation::Sigmoid,
            2 => Activation::Tanh,
            3 => Activation::Identity,
            other => return Err(CodecError::InvalidTag(other)),
        })
    }
}

impl BinaryCodec for Linear {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.in_dim as u64);
        enc.put_u64(self.out_dim as u64);
        enc.put_f64_slice(&self.w);
        enc.put_f64_slice(&self.b);
    }

    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        let in_dim = dec.get_dim()?;
        let out_dim = dec.get_dim()?;
        let w = dec.get_f64_vec()?;
        let b = dec.get_f64_vec()?;
        if w.len() != in_dim * out_dim || b.len() != out_dim {
            return Err(CodecError::InvalidDimension(w.len() as u64));
        }
        Ok(Linear {
            in_dim,
            out_dim,
            w,
            b,
        })
    }
}

impl BinaryCodec for Mlp {
    fn encode(&self, enc: &mut Encoder) {
        let (layers, activations) = self.parts();
        enc.put_u64(layers.len() as u64);
        for (layer, act) in layers.iter().zip(activations) {
            enc.put_u8(act.tag());
            layer.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        let n = dec.get_dim()?;
        let mut layers = Vec::with_capacity(n);
        let mut acts = Vec::with_capacity(n);
        for _ in 0..n {
            acts.push(Activation::from_tag(dec.get_u8()?)?);
            layers.push(Linear::decode(dec)?);
        }
        Mlp::from_parts(layers, acts).map_err(|_| CodecError::InvalidDimension(n as u64))
    }
}

impl BinaryCodec for GruCell {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.in_dim() as u64);
        enc.put_u64(self.hidden_dim() as u64);
        enc.put_f64_slice(&self.flat_params());
    }

    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        let in_dim = dec.get_dim()?;
        let hidden_dim = dec.get_dim()?;
        let params = dec.get_f64_vec()?;
        // Each dimension passes `MAX_DIM` alone, but the cell they describe
        // can still ask for terabytes: check the parameter count the header
        // implies against the parameters actually present before anything
        // is allocated.
        let expected = hidden_dim
            .checked_mul(in_dim)
            .and_then(|n| n.checked_add(hidden_dim.checked_mul(hidden_dim)?))
            .and_then(|n| n.checked_add(hidden_dim))
            .and_then(|n| n.checked_mul(3));
        if expected != Some(params.len()) {
            return Err(CodecError::InvalidDimension(params.len() as u64));
        }
        // Build a correctly-shaped zero cell, then load the parameters.
        let mut rng = rand::rngs::mock::StepRng::new(0, 0);
        let mut cell = GruCell::new(&mut rng, in_dim, hidden_dim);
        debug_assert_eq!(cell.param_count(), params.len());
        cell.set_flat_params(&params);
        Ok(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(&mut rng, 4, 3);
        let bytes = layer.to_bytes();
        let back = Linear::from_bytes(&bytes).unwrap();
        assert_eq!(layer.w, back.w);
        assert_eq!(layer.b, back.b);
    }

    #[test]
    fn mlp_roundtrip_preserves_outputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Mlp::new(
            &mut rng,
            &[3, 20, 5],
            &[Activation::Relu, Activation::Sigmoid],
        );
        let back = Mlp::from_bytes(&net.to_bytes()).unwrap();
        let x = [0.1, -0.4, 0.9];
        assert_eq!(net.forward(&x), back.forward(&x));
    }

    #[test]
    fn gru_roundtrip_preserves_encoding() {
        let mut rng = StdRng::seed_from_u64(3);
        let cell = GruCell::new(&mut rng, 2, 8);
        let back = GruCell::from_bytes(&cell.to_bytes()).unwrap();
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1, -0.2]).collect();
        assert_eq!(cell.encode(&xs), back.encode(&xs));
    }

    #[test]
    fn file_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Mlp::new(
            &mut rng,
            &[2, 4, 2],
            &[Activation::Tanh, Activation::Identity],
        );
        let dir = std::env::temp_dir().join("simsub_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ssub");
        net.save(&path).unwrap();
        let back = Mlp::load(&path).unwrap();
        assert_eq!(net.flat_params(), back.flat_params());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Mlp::new(&mut rng, &[2, 3], &[Activation::Relu]);
        let bytes = net.to_bytes();

        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert_eq!(Mlp::from_bytes(&bad), Err(CodecError::BadMagic));

        // Bad version.
        let mut bad = bytes.to_vec();
        bad[4] = 0xFF;
        assert!(matches!(
            Mlp::from_bytes(&bad),
            Err(CodecError::UnsupportedVersion(_))
        ));

        // Truncation.
        let truncated = &bytes[..bytes.len() - 3];
        assert_eq!(Mlp::from_bytes(truncated), Err(CodecError::Truncated));

        // Invalid activation tag.
        let mut bad = bytes.to_vec();
        bad[14] = 200; // first tag byte (after magic+version+layer count)
        assert!(matches!(
            Mlp::from_bytes(&bad),
            Err(CodecError::InvalidTag(200))
        ));
    }

    #[test]
    fn hostile_gru_header_is_rejected_before_allocating() {
        // A 30-byte file: two in-range dimensions whose cell would need
        // 2^44 parameters, and no parameters at all.
        let mut enc = Encoder::new();
        enc.put_u64(1);
        enc.put_u64(1 << 22);
        enc.put_f64_slice(&[]);
        let bytes = enc.finish();
        assert_eq!(bytes.len(), 30);
        assert!(matches!(
            GruCell::from_bytes(&bytes),
            Err(CodecError::InvalidDimension(0))
        ));
    }

    /// A `GruCell` record with the given header and parameter list.
    fn gru_record(in_dim: u64, hidden_dim: u64, params: &[f64]) -> Bytes {
        let mut enc = Encoder::new();
        enc.put_u64(in_dim);
        enc.put_u64(hidden_dim);
        enc.put_f64_slice(params);
        enc.finish()
    }

    #[test]
    fn gru_header_with_both_dimensions_at_the_bound_is_rejected() {
        // 3·(2^48 + 2^48 + 2^24) parameters claimed, none present.
        let bytes = gru_record(MAX_DIM, MAX_DIM, &[]);
        assert!(matches!(
            GruCell::from_bytes(&bytes),
            Err(CodecError::InvalidDimension(0))
        ));
    }

    #[test]
    fn gru_dimension_above_the_plausibility_bound_is_rejected() {
        for (in_dim, hidden_dim) in [(MAX_DIM + 1, 4), (2, MAX_DIM + 1)] {
            assert_eq!(
                GruCell::from_bytes(&gru_record(in_dim, hidden_dim, &[])).err(),
                Some(CodecError::InvalidDimension(MAX_DIM + 1)),
                "in_dim {in_dim}, hidden_dim {hidden_dim}"
            );
        }
    }

    #[test]
    fn gru_parameter_count_off_by_one_is_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let cell = GruCell::new(&mut rng, 2, 5);
        let params = cell.flat_params();
        let (in_dim, hidden_dim) = (cell.in_dim() as u64, cell.hidden_dim() as u64);
        let exact = GruCell::from_bytes(&gru_record(in_dim, hidden_dim, &params)).unwrap();
        assert_eq!(exact.flat_params(), params);
        let short = &params[..params.len() - 1];
        let mut long = params.clone();
        long.push(0.25);
        for wrong in [short, &long[..]] {
            assert_eq!(
                GruCell::from_bytes(&gru_record(in_dim, hidden_dim, wrong)).err(),
                Some(CodecError::InvalidDimension(wrong.len() as u64))
            );
        }
        // The right count under swapped dimensions describes another cell.
        assert!(GruCell::from_bytes(&gru_record(hidden_dim, in_dim, &params)).is_err());
    }

    #[test]
    fn linear_shape_mismatch_is_rejected() {
        let mut enc = Encoder::new();
        enc.put_u64(3);
        enc.put_u64(2);
        enc.put_f64_slice(&[0.5; 5]);
        enc.put_f64_slice(&[0.0; 2]);
        assert_eq!(
            Linear::from_bytes(&enc.finish()).err(),
            Some(CodecError::InvalidDimension(5))
        );
    }

    #[test]
    fn mlp_whose_layers_do_not_chain_is_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let (first, second) = (Linear::new(&mut rng, 2, 3), Linear::new(&mut rng, 4, 1));
        let mut enc = Encoder::new();
        enc.put_u64(2);
        for layer in [&first, &second] {
            enc.put_u8(Activation::Relu.tag());
            layer.encode(&mut enc);
        }
        assert_eq!(
            Mlp::from_bytes(&enc.finish()).err(),
            Some(CodecError::InvalidDimension(2))
        );
    }

    #[test]
    fn empty_buffer_is_truncated() {
        assert_eq!(Mlp::from_bytes(&[]), Err(CodecError::Truncated));
    }
}
