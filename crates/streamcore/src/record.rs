//! Schema-described records for the Flexible Query Processor.
//!
//! While the flow-based join case study uses fixed 64-bit [`crate::Tuple`]s,
//! FQP queries operate over richer events (e.g. the paper's customer /
//! product streams with `Age`, `Gender`, and `ProductID` attributes). A
//! [`Schema`] names the fields and their bit widths; a [`Record`] carries
//! the values.
//!
//! Schemas also support *vertical partitioning* into fixed-width segments —
//! the paper's "parametrized data segments", which let a hardware fabric
//! with a fixed wiring budget carry tuples of varying schema sizes.

use std::error::Error;
use std::fmt;
use std::ops::Range;

/// A named field with a width in bits (1–64).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    name: String,
    width_bits: u8,
}

impl Field {
    /// Creates a field.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::InvalidWidth`] unless `1 <= width_bits <= 64`.
    pub fn new(name: impl Into<String>, width_bits: u8) -> Result<Self, SchemaError> {
        if width_bits == 0 || width_bits > 64 {
            return Err(SchemaError::InvalidWidth { width_bits });
        }
        Ok(Self {
            name: name.into(),
            width_bits,
        })
    }

    /// The field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field width in bits.
    pub fn width_bits(&self) -> u8 {
        self.width_bits
    }
}

/// An ordered collection of uniquely named [`Field`]s.
///
/// # Example
///
/// ```
/// use streamcore::{Field, Schema};
///
/// let schema = Schema::new(vec![
///     Field::new("product_id", 32)?,
///     Field::new("age", 8)?,
///     Field::new("gender", 1)?,
/// ])?;
/// assert_eq!(schema.width_bits(), 41);
/// assert_eq!(schema.index_of("age"), Some(1));
/// # Ok::<(), streamcore::SchemaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema from `fields`.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::DuplicateField`] if two fields share a name,
    /// or [`SchemaError::Empty`] for an empty field list.
    pub fn new(fields: Vec<Field>) -> Result<Self, SchemaError> {
        if fields.is_empty() {
            return Err(SchemaError::Empty);
        }
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(SchemaError::DuplicateField {
                    name: f.name.clone(),
                });
            }
        }
        Ok(Self { fields })
    }

    /// The fields, in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Total width of one record in bits.
    pub fn width_bits(&self) -> u32 {
        self.fields.iter().map(|f| f.width_bits as u32).sum()
    }

    /// The position of the field called `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Vertically partitions the fields into segments whose total width
    /// does not exceed `segment_bits` — the paper's parametrized data
    /// segments. Each returned range indexes into [`Schema::fields`].
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::SegmentTooNarrow`] if any single field is
    /// wider than `segment_bits`.
    pub fn segments(&self, segment_bits: u32) -> Result<Vec<Range<usize>>, SchemaError> {
        let mut out = Vec::new();
        let mut start = 0usize;
        let mut acc = 0u32;
        for (i, f) in self.fields.iter().enumerate() {
            let w = f.width_bits as u32;
            if w > segment_bits {
                return Err(SchemaError::SegmentTooNarrow {
                    field: f.name.clone(),
                    width_bits: f.width_bits,
                    segment_bits,
                });
            }
            if acc + w > segment_bits {
                out.push(start..i);
                start = i;
                acc = 0;
            }
            acc += w;
        }
        out.push(start..self.fields.len());
        Ok(out)
    }

    /// Validates that `record` matches this schema (arity and per-field
    /// range).
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::ArityMismatch`] or
    /// [`SchemaError::ValueOutOfRange`].
    pub fn check(&self, record: &Record) -> Result<(), SchemaError> {
        if record.values().len() != self.fields.len() {
            return Err(SchemaError::ArityMismatch {
                expected: self.fields.len(),
                actual: record.values().len(),
            });
        }
        for (f, &v) in self.fields.iter().zip(record.values()) {
            if f.width_bits < 64 {
                let max = (1u64 << f.width_bits) - 1;
                if v > max {
                    return Err(SchemaError::ValueOutOfRange {
                        field: f.name.clone(),
                        value: v,
                        max,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A record: one unsigned value per schema field.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Record {
    values: Vec<u64>,
}

impl Record {
    /// Creates a record from field values in schema order.
    pub fn new(values: Vec<u64>) -> Self {
        Self { values }
    }

    /// The field values in schema order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The value at field position `index`, if in range.
    pub fn get(&self, index: usize) -> Option<u64> {
        self.values.get(index).copied()
    }
}

impl From<Vec<u64>> for Record {
    fn from(values: Vec<u64>) -> Self {
        Record::new(values)
    }
}

impl FromIterator<u64> for Record {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Record::new(iter.into_iter().collect())
    }
}

/// Errors arising from schema construction or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A schema must contain at least one field.
    Empty,
    /// Field width outside 1–64 bits.
    InvalidWidth {
        /// The offending width.
        width_bits: u8,
    },
    /// Two fields share a name.
    DuplicateField {
        /// The duplicated name.
        name: String,
    },
    /// A field is wider than the requested data segment.
    SegmentTooNarrow {
        /// The field that does not fit.
        field: String,
        /// Its width.
        width_bits: u8,
        /// The segment budget.
        segment_bits: u32,
    },
    /// Record arity differs from the schema's.
    ArityMismatch {
        /// Fields in the schema.
        expected: usize,
        /// Values in the record.
        actual: usize,
    },
    /// A value does not fit its field width.
    ValueOutOfRange {
        /// The field name.
        field: String,
        /// The offending value.
        value: u64,
        /// Largest representable value.
        max: u64,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Empty => write!(f, "schema has no fields"),
            SchemaError::InvalidWidth { width_bits } => {
                write!(f, "field width {width_bits} outside 1..=64 bits")
            }
            SchemaError::DuplicateField { name } => {
                write!(f, "duplicate field name {name:?}")
            }
            SchemaError::SegmentTooNarrow {
                field,
                width_bits,
                segment_bits,
            } => write!(
                f,
                "field {field:?} ({width_bits} bits) exceeds segment budget of {segment_bits} bits"
            ),
            SchemaError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "record has {actual} values but schema has {expected} fields"
                )
            }
            SchemaError::ValueOutOfRange { field, value, max } => {
                write!(f, "value {value} exceeds maximum {max} of field {field:?}")
            }
        }
    }
}

impl Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer_schema() -> Schema {
        Schema::new(vec![
            Field::new("product_id", 32).unwrap(),
            Field::new("age", 8).unwrap(),
            Field::new("gender", 1).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn width_and_lookup() {
        let s = customer_schema();
        assert_eq!(s.width_bits(), 41);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("gender"), Some(2));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn rejects_empty_and_duplicates_and_bad_widths() {
        assert_eq!(Schema::new(vec![]).unwrap_err(), SchemaError::Empty);
        let dup = Schema::new(vec![
            Field::new("a", 8).unwrap(),
            Field::new("a", 8).unwrap(),
        ]);
        assert!(matches!(dup, Err(SchemaError::DuplicateField { .. })));
        assert!(matches!(
            Field::new("x", 0),
            Err(SchemaError::InvalidWidth { .. })
        ));
        assert!(matches!(
            Field::new("x", 65),
            Err(SchemaError::InvalidWidth { .. })
        ));
        assert!(Field::new("x", 64).is_ok());
    }

    #[test]
    fn segments_respect_budget() {
        let s = customer_schema();
        // 32 | 8+1 with a 32-bit budget.
        let segs = s.segments(32).unwrap();
        assert_eq!(segs, vec![0..1, 1..3]);
        // Everything fits in one 64-bit segment.
        assert_eq!(s.segments(64).unwrap(), vec![0..3]);
    }

    #[test]
    fn segments_reject_oversized_field() {
        let s = customer_schema();
        let err = s.segments(16).unwrap_err();
        assert!(matches!(err, SchemaError::SegmentTooNarrow { .. }));
    }

    #[test]
    fn check_validates_arity_and_ranges() {
        let s = customer_schema();
        assert!(s.check(&Record::new(vec![1, 30, 1])).is_ok());
        assert!(matches!(
            s.check(&Record::new(vec![1, 30])),
            Err(SchemaError::ArityMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(
            s.check(&Record::new(vec![1, 300, 1])),
            Err(SchemaError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn record_accessors() {
        let r: Record = vec![5u64, 6, 7].into();
        assert_eq!(r.get(1), Some(6));
        assert_eq!(r.get(9), None);
        let collected: Record = (0..3u64).collect();
        assert_eq!(collected.values(), &[0, 1, 2]);
    }

    #[test]
    fn full_width_field_accepts_any_value() {
        let s = Schema::new(vec![Field::new("wide", 64).unwrap()]).unwrap();
        assert!(s.check(&Record::new(vec![u64::MAX])).is_ok());
    }
}
