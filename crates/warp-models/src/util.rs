//! Small shared helpers for the models.

/// Mix the bits of `x` and extract a well-distributed value from the
/// given bit offset — used for address-interleaving decisions so that
/// adjacent addresses spread across controllers/banks/disks.
pub fn spread(x: u64, shift: u32) -> u64 {
    let mut z = x.rotate_right(shift).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 32)
}

/// `Clone` for a state that owns heap storage, field by field, with a
/// `clone_from` that reuses every field's buffers. The kernel saves and
/// restores states by `clone_from` into storage it recycles; the derived
/// `clone_from` is `*self = source.clone()`, which reallocates them all.
/// Every field must be listed (the struct literal in `clone` checks it).
macro_rules! clone_field_wise {
    ($ty:ident: $($field:ident),+ $(,)?) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                $ty { $($field: self.$field.clone()),+ }
            }
            fn clone_from(&mut self, source: &Self) {
                $(self.$field.clone_from(&source.$field);)+
            }
        }
    };
}
pub(crate) use clone_field_wise;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_distributes_sequential_inputs() {
        let mut buckets = [0usize; 8];
        for x in 0..8000u64 {
            buckets[(spread(x, 8) % 8) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((800..1200).contains(&b), "bucket {i} got {b}");
        }
    }

    #[test]
    fn spread_differs_by_shift() {
        assert_ne!(spread(12345, 8), spread(12345, 16));
    }
}
