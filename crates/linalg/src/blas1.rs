//! BLAS level-1: vector-vector operations.
//!
//! Signatures follow the reference BLAS (unit stride only — HPL's panel
//! kernels never need non-unit strides with our storage scheme).

/// Index of the element with maximum absolute value (first on ties),
/// or `None` for an empty slice. LAPACK's pivot search.
pub(crate) fn idamax(x: &[f64]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_abs = x[0].abs();
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v.abs() > best_abs {
            best = i;
            best_abs = v.abs();
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idamax_finds_largest_magnitude() {
        assert_eq!(idamax(&[1.0, -5.0, 3.0]), Some(1));
        assert_eq!(idamax(&[2.0, -2.0]), Some(0), "first wins ties");
        assert_eq!(idamax(&[]), None);
    }
}
