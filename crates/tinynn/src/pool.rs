//! 2-D max pooling.

use crate::layer::{Cache, Layer};
use crate::tensor::Tensor;

/// Non-overlapping `k × k` max pooling (stride = k) over `[B, C, H, W]`.
///
/// Trailing rows/columns that do not fill a window are dropped, matching the
/// common "floor" behaviour.
pub struct MaxPool2d {
    k: usize,
}

impl MaxPool2d {
    /// Construct a pool with window (and stride) `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "pool window must be >= 1");
        Self { k }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward(&self, x: &Tensor, train: bool) -> (Tensor, Cache) {
        assert_eq!(x.rank(), 4, "MaxPool2d expects [B, C, H, W]");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = (h / self.k, w / self.k);
        let mut out = vec![0.0f32; b * c * oh * ow];
        // Only backward reads the argmax, so inference skips it.
        let mut argmax = vec![0u32; if train { out.len() } else { 0 }];
        // The 2×2 window of the FEMNIST CNN gets its own inlined copy with
        // the window loops unrolled.
        if self.k == 2 {
            max_planes(x.as_slice(), 2, h, w, &mut out, &mut argmax);
        } else {
            max_planes(x.as_slice(), self.k, h, w, &mut out, &mut argmax);
        }
        let cache = if train {
            Cache::new(argmax)
        } else {
            Cache::none()
        };
        (Tensor::from_vec(vec![b, c, oh, ow], out), cache)
    }

    /// Routes each output gradient to its window's argmax; needs the cache
    /// of a training-mode forward.
    fn backward(&self, x: &Tensor, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let k = self.k;
        let (oh, ow) = (h / k, w / k);
        let argmax = cache.get::<Vec<u32>>();
        let plane = h * w;
        let oplane = oh * ow;
        let gs = grad_out.as_slice();
        let mut gx = vec![0.0f32; b * c * plane];
        for (pc, gp) in gx.chunks_exact_mut(plane).enumerate() {
            let gob = &gs[pc * oplane..(pc + 1) * oplane];
            let ab = &argmax[pc * oplane..(pc + 1) * oplane];
            for (g, &ai) in gob.iter().zip(ab) {
                gp[ai as usize] += g;
            }
        }
        (Tensor::from_vec(x.shape().to_vec(), gx), Vec::new())
    }
}

/// Pool every `h × w` plane of `xs` into `out`, and record each window's
/// argmax (an index into its plane) when `argmax` is not empty. The planes
/// are tiny, so they run serially on the caller's thread.
#[inline(always)]
fn max_planes(xs: &[f32], k: usize, h: usize, w: usize, out: &mut [f32], argmax: &mut [u32]) {
    let (oh, ow) = (h / k, w / k);
    let oplane = oh * ow;
    let train = !argmax.is_empty();
    for (pc, xp) in xs.chunks_exact(h * w).enumerate() {
        for oy in 0..oh {
            for ox in 0..ow {
                // Running max and argmax as selects: strict `>`, the first
                // index wins ties, NaN never wins.
                let mut best = f32::NEG_INFINITY;
                let mut besti = 0usize;
                for ky in 0..k {
                    let row = (oy * k + ky) * w + ox * k;
                    for (kx, &v) in xp[row..row + k].iter().enumerate() {
                        let wins = v > best;
                        best = if wins { v } else { best };
                        besti = if wins { row + kx } else { besti };
                    }
                }
                let o = pc * oplane + oy * ow + ox;
                out[o] = best;
                if train {
                    argmax[o] = besti as u32;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_2x2_takes_max() {
        let x = Tensor::from_vec(vec![1, 1, 2, 4], vec![1., 5., 2., 0., 3., 4., 1., 9.]);
        let p = MaxPool2d::new(2);
        let (y, _) = p.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.as_slice(), &[5., 9.]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 5., 2., 0.]);
        let p = MaxPool2d::new(2);
        let (_, c) = p.forward(&x, true);
        let g = Tensor::from_vec(vec![1, 1, 1, 1], vec![3.0]);
        let (gx, gp) = p.backward(&x, &c, &g);
        assert_eq!(gx.as_slice(), &[0., 3., 0., 0.]);
        assert!(gp.is_empty());
    }

    #[test]
    fn odd_sizes_floor() {
        let x = Tensor::from_fn(&[1, 1, 5, 5], |i| i as f32);
        let p = MaxPool2d::new(2);
        let (y, _) = p.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn multi_channel_planes_independent() {
        let x = Tensor::from_vec(vec![1, 2, 2, 2], vec![1., 2., 3., 4., 8., 7., 6., 5.]);
        let p = MaxPool2d::new(2);
        let (y, _) = p.forward(&x, false);
        assert_eq!(y.as_slice(), &[4., 8.]);
    }
}
