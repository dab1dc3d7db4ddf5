//! Canonical wire encoding ([`Wire`]) of the simulation layer's
//! three-valued [`Logic`]. Discriminant bytes are part of the frozen wire
//! format — append new variants, never renumber.

use scanpower_wire::{Wire, WireError, WireReader, WireWriter};

use crate::logic::Logic;

impl Wire for Logic {
    fn encode_into(&self, writer: &mut WireWriter) {
        writer.write_u8(match self {
            Logic::Zero => 0,
            Logic::One => 1,
            Logic::X => 2,
        });
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.read_u8()? {
            0 => Ok(Logic::Zero),
            1 => Ok(Logic::One),
            2 => Ok(Logic::X),
            tag => Err(WireError::InvalidTag {
                type_name: "Logic",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logic_tags_are_frozen() {
        for (logic, tag) in [(Logic::Zero, 0u8), (Logic::One, 1), (Logic::X, 2)] {
            let mut writer = WireWriter::new();
            logic.encode_into(&mut writer);
            assert_eq!(writer.as_bytes(), &[tag], "{logic:?}");
        }
        let mut reader = WireReader::new(&[3]);
        assert_eq!(
            Logic::decode_from(&mut reader),
            Err(WireError::InvalidTag {
                type_name: "Logic",
                tag: 3
            })
        );
    }
}
