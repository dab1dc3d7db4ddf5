use crate::error::WireError;
use crate::reader::WireReader;
use crate::writer::WireWriter;

/// Magic bytes opening every top-level wire message.
pub const WIRE_MAGIC: [u8; 4] = *b"SPWR";

/// Format version stamped into every envelope. Bump whenever any type's
/// canonical byte layout changes; decoders refuse other versions with
/// [`WireError::UnsupportedVersion`], which is also what invalidates
/// content-addressed caches across incompatible builds.
pub const WIRE_VERSION: u16 = 3;

/// A type with a canonical, versioned binary encoding.
///
/// `encode_into` appends the value's canonical bytes to a [`WireWriter`];
/// `decode_from` consumes exactly those bytes back. The two are exact
/// inverses: for every value `v`, decoding `v`'s encoding yields a value
/// equal to `v` and leaves the reader positioned right after it — the
/// round-trip property the suite-level tests pin for every implementation.
///
/// Implementations must be *canonical*: one byte string per value, no
/// alternative encodings. This is what makes [`encode_message`] output safe
/// to feed to [`crate::ContentHasher`] for content addressing.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `writer`.
    fn encode_into(&self, writer: &mut WireWriter);

    /// Decodes a value from `reader`, consuming exactly the bytes
    /// [`Wire::encode_into`] produced.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated input, invalid discriminants or
    /// violated invariants of the target type.
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` as a complete, versioned wire message
    /// (shorthand for [`encode_message`]).
    #[must_use]
    fn to_wire_bytes(&self) -> Vec<u8> {
        encode_message(self)
    }

    /// Decodes a complete, versioned wire message
    /// (shorthand for [`decode_message`]).
    ///
    /// # Errors
    ///
    /// Everything [`decode_message`] returns.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        decode_message(bytes)
    }
}

/// Encodes `value` as a complete wire message: the `SPWR` magic, the
/// [`WIRE_VERSION`] format version, then the value's canonical bytes.
#[must_use]
pub fn encode_message<T: Wire>(value: &T) -> Vec<u8> {
    let mut writer = WireWriter::new();
    writer.write_raw(&WIRE_MAGIC);
    writer.write_u16(WIRE_VERSION);
    value.encode_into(&mut writer);
    writer.into_bytes()
}

/// Decodes a complete wire message produced by [`encode_message`],
/// validating the magic, the format version and that no bytes trail the
/// value.
///
/// # Errors
///
/// [`WireError::BadMagic`] when the input is not a wire message,
/// [`WireError::UnsupportedVersion`] when it was produced by an
/// incompatible format version, [`WireError::TrailingBytes`] when the
/// payload outlives the value, plus every error of the value's own
/// [`Wire::decode_from`].
pub fn decode_message<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut reader = WireReader::new(bytes);
    let magic = reader.read_raw(4)?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic {
            found: magic.try_into().expect("read_raw(4)"),
        });
    }
    let version = reader.read_u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: WIRE_VERSION,
        });
    }
    let value = T::decode_from(&mut reader)?;
    if !reader.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: reader.remaining(),
        });
    }
    Ok(value)
}

macro_rules! primitive_wire {
    ($ty:ty, $write:ident, $read:ident) => {
        impl Wire for $ty {
            fn encode_into(&self, writer: &mut WireWriter) {
                writer.$write(*self);
            }
            fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
                reader.$read()
            }
        }
    };
}

primitive_wire!(u8, write_u8, read_u8);
primitive_wire!(u16, write_u16, read_u16);
primitive_wire!(u32, write_u32, read_u32);
primitive_wire!(u64, write_u64, read_u64);
primitive_wire!(u128, write_u128, read_u128);
primitive_wire!(usize, write_usize, read_usize);
primitive_wire!(bool, write_bool, read_bool);
primitive_wire!(f64, write_f64, read_f64);

impl Wire for i64 {
    fn encode_into(&self, writer: &mut WireWriter) {
        writer.write_u64(*self as u64);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(reader.read_u64()? as i64)
    }
}

impl Wire for String {
    fn encode_into(&self, writer: &mut WireWriter) {
        writer.write_str(self);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        reader.read_string()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode_into(&self, writer: &mut WireWriter) {
        match self {
            None => writer.write_u8(0),
            Some(value) => {
                writer.write_u8(1);
                value.encode_into(writer);
            }
        }
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(reader)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "Option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_into(&self, writer: &mut WireWriter) {
        writer.write_len(self.len());
        for item in self {
            item.encode_into(writer);
        }
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        // Every element costs at least one byte on the wire, so the length
        // prefix is validated against the remaining input before the
        // allocation happens.
        let len = reader.read_len(1)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode_from(reader)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.0.encode_into(writer);
        self.1.encode_into(writer);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(reader)?, B::decode_from(reader)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.0.encode_into(writer);
        self.1.encode_into(writer);
        self.2.encode_into(writer);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((
            A::decode_from(reader)?,
            B::decode_from(reader)?,
            C::decode_from(reader)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_message(&value);
        assert_eq!(decode_message::<T>(&bytes).unwrap(), value);
    }

    #[test]
    fn primitives_round_trip_through_the_envelope() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(-42i64);
        round_trip(f64::NEG_INFINITY);
        round_trip(true);
        round_trip("scan power".to_owned());
        round_trip(Some(vec![1u32, 2, 3]));
        round_trip(Option::<u8>::None);
        round_trip((1u8, "two".to_owned(), vec![3.0f64]));
    }

    #[test]
    fn negative_zero_survives_bit_exactly() {
        let bytes = encode_message(&-0.0f64);
        let decoded: f64 = decode_message(&bytes).unwrap();
        assert_eq!(decoded.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn wrong_magic_is_refused() {
        let mut bytes = encode_message(&7u8);
        bytes[0] = b'X';
        assert!(matches!(
            decode_message::<u8>(&bytes),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version_is_refused() {
        let mut bytes = encode_message(&7u8);
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert_eq!(
            decode_message::<u8>(&bytes),
            Err(WireError::UnsupportedVersion {
                found: 0xffff,
                supported: WIRE_VERSION
            })
        );
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut bytes = encode_message(&7u8);
        bytes.push(0);
        assert_eq!(
            decode_message::<u8>(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn every_truncation_of_a_message_is_refused() {
        let bytes = encode_message(&("abc".to_owned(), vec![1u64, 2, 3]));
        for cut in 0..bytes.len() {
            assert!(
                decode_message::<(String, Vec<u64>)>(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn option_rejects_invalid_tags() {
        let mut writer = WireWriter::new();
        writer.write_raw(&WIRE_MAGIC);
        writer.write_u16(WIRE_VERSION);
        writer.write_u8(9);
        assert_eq!(
            decode_message::<Option<u8>>(&writer.into_bytes()),
            Err(WireError::InvalidTag {
                type_name: "Option",
                tag: 9
            })
        );
    }
}
