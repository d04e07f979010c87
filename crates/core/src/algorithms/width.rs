//! Score widths for the kernels' branch-free inner loops.
//!
//! kd-ASP\*'s node and candidate passes and B&B's window screen and
//! pruning test each compare score rows of width d′ coordinate by
//! coordinate. Each loop body is generic over a [`Width`]: [`Fixed`] makes
//! d′ a compile-time constant, so the coordinate loop unrolls fully, and
//! [`Runtime`] carries it as a value. [`by_width!`] dispatches once per call:
//! d′ = 1..=16 run their own compiled copy, larger d′ the runtime-width copy.

/// The score width of one loop: a compile-time constant ([`Fixed`]) or a
/// runtime value ([`Runtime`]).
pub(crate) trait Width: Copy {
    fn dim(self) -> usize;
}

/// A score width known at compile time.
#[derive(Clone, Copy)]
pub(crate) struct Fixed<const D: usize>;

impl<const D: usize> Width for Fixed<D> {
    #[inline(always)]
    fn dim(self) -> usize {
        D
    }
}

/// A score width known only at run time (d′ above the compiled widths).
#[derive(Clone, Copy)]
pub(crate) struct Runtime(pub(crate) usize);

impl Width for Runtime {
    #[inline(always)]
    fn dim(self) -> usize {
        self.0
    }
}

/// `by_width!(dim, |w| body)` evaluates `body` with `w` bound to the
/// [`Width`] of `dim`: `Fixed::<dim>` for `dim` in 1..=16, else
/// `Runtime(dim)`.
macro_rules! by_width {
    ($dim:expr, |$w:ident| $body:expr) => {
        $crate::algorithms::width::by_width!(
            @arms $dim, $w, $body, 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
        )
    };
    (@arms $dim:expr, $w:ident, $body:expr, $($d:literal)*) => {
        match $dim {
            $($d => {
                let $w = $crate::algorithms::width::Fixed::<$d>;
                $body
            })*
            dim => {
                let $w = $crate::algorithms::width::Runtime(dim);
                $body
            }
        }
    };
}

pub(crate) use by_width;
