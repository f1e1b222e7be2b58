//! Seeded input generation. Everything the program under test sees is a
//! pure function of `(--seed, request id)`, so the same seed replays a
//! byte-identical request stream without storing it.

use relserve_runtime::Priority;
use relserve_serve::wire::{self, InferRequest, Request};
use relserve_tensor::Tensor;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 20240131;

/// One step of the splitmix64 sequence: advances `state`, returns 64 mixed
/// bits.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless draw in `[0, 1)` for stream position `index` of `seed`.
pub fn unit(seed: u64, index: u64) -> f64 {
    let mut s = seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut s);
    (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64
}

/// A `[rows, cols]` feature matrix with entries uniform in `[-1, 1)`.
pub fn features(seed: u64, rows: usize, cols: usize) -> Tensor {
    let mut s = seed ^ 0x5EED_FEA7_0000_0000;
    Tensor::from_fn([rows, cols], |_| {
        (splitmix64(&mut s) >> 40) as f32 / (1u32 << 23) as f32 - 1.0
    })
}

/// How an online workload picks the entity of each request.
#[derive(Debug, Clone)]
pub enum EntityDraw {
    /// Every entity equally likely.
    Uniform {
        /// Number of distinct entities.
        universe: usize,
    },
    /// Zipf with exponent `s`: entity `k` (0-based) has weight `1/(k+1)^s`.
    Zipf {
        /// Cumulative distribution over the universe.
        cdf: Vec<f64>,
    },
}

impl EntityDraw {
    /// A Zipf(`s`) draw over `universe` entities.
    pub fn zipf(universe: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=universe)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        EntityDraw::Zipf { cdf }
    }

    /// The entity a draw `u` in `[0, 1)` selects.
    pub fn pick(&self, u: f64) -> usize {
        match self {
            EntityDraw::Uniform { universe } => ((u * *universe as f64) as usize).min(universe - 1),
            EntityDraw::Zipf { cdf } => cdf.partition_point(|c| *c <= u).min(cdf.len() - 1),
        }
    }
}

/// The request stream of an online workload: request `id` asks for the
/// prediction of one row of a seeded universe.
pub struct RequestStream {
    seed: u64,
    model: String,
    draw: EntityDraw,
    universe: Tensor,
}

impl RequestStream {
    /// A stream over `universe` distinct rows of `cols` features.
    pub fn new(seed: u64, model: &str, draw: EntityDraw, universe: usize, cols: usize) -> Self {
        RequestStream {
            seed,
            model: model.to_string(),
            draw,
            universe: features(seed, universe, cols),
        }
    }

    /// Every distinct row the stream can ask about, `[universe, cols]`.
    pub fn universe(&self) -> &Tensor {
        &self.universe
    }

    /// Which universe row request `id` carries.
    pub fn entity(&self, id: u64) -> usize {
        self.draw.pick(unit(self.seed, id))
    }

    /// The decoded form of request `id`.
    pub fn request(&self, id: u64) -> Request {
        let row = self
            .universe
            .row(self.entity(id))
            .expect("entity is inside the universe");
        Request::Infer(InferRequest {
            id,
            class: Priority::Standard,
            deadline_micros: 0,
            model: self.model.clone(),
            rows: 1,
            cols: row.len() as u32,
            data: row.to_vec(),
        })
    }

    /// Append request `id` to `out` as one wire frame, through the public
    /// codec.
    pub fn write_frame(&self, id: u64, out: &mut Vec<u8>) {
        let payload = wire::encode_request(&self.request(id)).expect("generated request encodes");
        wire::write_frame(out, &payload).expect("writing to a Vec cannot fail");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64, draw: EntityDraw, n: u64) -> Vec<u8> {
        let stream = RequestStream::new(seed, "Fraud-FC-256", draw, 512, 28);
        let mut out = Vec::new();
        for id in 1..=n {
            stream.write_frame(id, &mut out);
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for draw in [
            EntityDraw::Uniform { universe: 512 },
            EntityDraw::zipf(512, 1.1),
        ] {
            let a = stream_bytes(7, draw.clone(), 300);
            let b = stream_bytes(7, draw.clone(), 300);
            let c = stream_bytes(8, draw, 300);
            assert_eq!(a, b, "same seed must replay byte-identically");
            assert_eq!(a.len(), c.len());
            assert_ne!(a, c, "another seed must give another stream");
        }
    }

    #[test]
    fn frames_decode_back_through_the_public_codec() {
        let stream = RequestStream::new(3, "m", EntityDraw::Uniform { universe: 16 }, 16, 4);
        let mut bytes = Vec::new();
        stream.write_frame(42, &mut bytes);
        let payload = wire::read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(wire::decode_request(&payload).unwrap(), stream.request(42));
    }

    #[test]
    fn zipf_is_skewed_and_normalised() {
        let draw = EntityDraw::zipf(8192, 1.1);
        let EntityDraw::Zipf { cdf } = &draw else {
            unreachable!()
        };
        assert!((cdf[8191] - 1.0).abs() < 1e-12);
        assert_eq!(draw.pick(0.0), 0);
        assert_eq!(draw.pick(0.999_999_999), 8191);
        // Entity 0 carries 1/H(8192, 1.1) of the mass, about 16 %.
        assert!(cdf[0] > 0.14 && cdf[0] < 0.18, "{}", cdf[0]);
        let n = 20_000u64;
        let top = (0..n).filter(|i| draw.pick(unit(1, *i)) < 1024).count();
        // The hottest eighth of the universe draws about 85 % of requests.
        assert!(top as f64 / n as f64 > 0.80, "{top}");
    }

    #[test]
    fn uniform_covers_the_universe() {
        let draw = EntityDraw::Uniform { universe: 4 };
        assert_eq!(draw.pick(0.0), 0);
        assert_eq!(draw.pick(0.9999), 3);
        let mut seen = [0u32; 4];
        for i in 0..4000 {
            seen[draw.pick(unit(9, i))] += 1;
        }
        assert!(seen.iter().all(|c| *c > 800), "{seen:?}");
    }
}
