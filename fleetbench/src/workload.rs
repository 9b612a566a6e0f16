//! The three traffic mixes and the seeded request generator.
//!
//! Every workload serves the same fleet config apart from the worker
//! count: a 4-day × 24-period × 10-slot grid of 60 s slots, a 2 F +
//! 15 F bank, the `ecg` task set and the service's default `dbn` and
//! `distill` specs. Request lines are a pure function of
//! `(run seed, request index)`, so a run can be replayed exactly and
//! the program under test receives nothing but bytes.

use std::fmt::Write as _;

/// Grid every workload simulates.
pub const DAYS: usize = 4;
/// Periods per day.
pub const PERIODS_PER_DAY: usize = 24;
/// Flat periods per scenario.
pub const PERIODS: usize = DAYS * PERIODS_PER_DAY;

/// Planner kinds the benchmark can request, in the order the per-kind
/// metrics are reported.
pub const KINDS: [&str; 6] = ["distilled", "dbn", "inter", "intra", "mpc", "optimal"];

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 unrelated scenarios per request, planners cycling
    /// `distilled`, `dbn`, `intra`, `inter`: fold-table hits only on
    /// the shared night prefix, a saturated table, encoding-heavy.
    Independent,
    /// One site per request: 64 nodes on one weather seed, `distilled`
    /// and `dbn` planners, half of them `resilient`, each with its own
    /// capacitor-aging plan, in two shards sharing one fold table.
    Colocated,
    /// Small requests of `mpc` and `optimal` scenarios: per-period and
    /// whole-horizon long-term DP.
    Lookahead,
}

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Scenarios per request.
    pub scenarios: usize,
    /// Untimed requests served before timing starts.
    pub warmup: usize,
    /// Distinct timed requests: the set one pass serves, in order.
    pub requests: usize,
    /// Passes over the timed set a run serves at least, whatever
    /// `--seconds` says.
    pub passes: usize,
    /// Requests the traced run replays layer by layer.
    pub traced: usize,
    /// Fresh services built to time `setup_s`, reported as their
    /// median.
    pub setups: usize,
    /// Requests whose traced replay the correctness gate checks.
    pub gate: usize,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Independent,
        Workload::Colocated,
        Workload::Lookahead,
    ];

    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Independent => "independent",
            Workload::Colocated => "colocated",
            Workload::Lookahead => "lookahead",
        }
    }

    /// Service workers: the config's `threads`, the shards each
    /// request is split into.
    pub fn workers(self) -> usize {
        match self {
            Workload::Colocated => 2,
            Workload::Independent | Workload::Lookahead => 1,
        }
    }

    /// The first protocol line.
    pub fn config_line(self) -> String {
        format!(
            "{{\"grid\":{{\"days\":{DAYS},\"periods\":{PERIODS_PER_DAY},\"slots\":10,\
             \"slot_seconds\":60.0}},\"capacitors_farads\":[2.0,15.0],\"benchmark\":\"ecg\",\
             \"dbn\":{{\"seed\":11}},\"distill\":{{\"seed\":11}},\"threads\":{}}}",
            self.workers()
        )
    }

    /// The measured size. Warm-up runs the distilled workloads' shared
    /// fold table (4096 prefixes) past its capacity, so timing sees the
    /// long-lived, saturated service. A prefix is the previous period's
    /// slot powers, so the all-zero night prefix is shared by everyone
    /// and only the ~48 daylight periods of a trace insert new ones:
    /// `independent` inserts ~16 × 48 per request, `colocated` one
    /// site's ~48. One pass inserts more prefixes than the table
    /// holds (`colocated`: 119 other sites × ~48 between two servings
    /// of a request), so a request served again in a later pass finds
    /// none of its own prefixes left and does the same work as before.
    pub fn full(self) -> Size {
        match self {
            Workload::Independent => Size {
                scenarios: 64,
                warmup: 8,
                requests: 100,
                passes: 2,
                traced: 24,
                setups: 9,
                gate: 2,
            },
            Workload::Colocated => Size {
                scenarios: 64,
                warmup: 90,
                requests: 120,
                passes: 2,
                traced: 24,
                setups: 9,
                gate: 2,
            },
            Workload::Lookahead => Size {
                scenarios: 6,
                warmup: 3,
                requests: 100,
                passes: 2,
                traced: 24,
                setups: 9,
                gate: 2,
            },
        }
    }

    /// A size small enough for the self-test.
    pub fn tiny(self) -> Size {
        Size {
            scenarios: match self {
                Workload::Lookahead => 2,
                _ => 8,
            },
            warmup: 1,
            requests: 2,
            passes: 2,
            traced: 2,
            setups: 1,
            gate: 1,
        }
    }

    /// Request line `index` (1-based, it is also the request id) of a
    /// run seeded with `seed`.
    pub fn request_line(self, seed: u64, index: u64, scenarios: usize) -> String {
        let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        let mut line = format!("{{\"id\":{index},\"scenarios\":[");
        let site = rng.seed31();
        for k in 0..scenarios {
            if k > 0 {
                line.push(',');
            }
            match self {
                Workload::Independent => {
                    let planner = ["distilled", "dbn", "intra", "inter"][k % 4];
                    let _ = write!(
                        line,
                        "{{\"seed\":{},\"planner\":\"{planner}\"}}",
                        rng.seed31()
                    );
                }
                Workload::Colocated => {
                    let planner = ["distilled", "dbn"][k % 2];
                    let resilient = (k / 2) % 2 == 1;
                    let fade = 0.95 + 0.049 * rng.unit();
                    let growth = 1.0 + 0.25 * rng.unit();
                    let _ = write!(
                        line,
                        "{{\"seed\":{site},\"planner\":\"{planner}\",\"resilient\":{resilient},\
                         \"faults\":{{\"seed\":{},\"aging\":{{\"capacitance_fade_per_day\":{fade:.6},\
                         \"leakage_growth_per_day\":{growth:.6}}}}}}}",
                        rng.seed31()
                    );
                }
                Workload::Lookahead => {
                    let planner = ["mpc", "optimal"][k % 2];
                    let _ = write!(
                        line,
                        "{{\"seed\":{},\"planner\":\"{planner}\"}}",
                        rng.seed31()
                    );
                }
            }
        }
        line.push_str("]}");
        line
    }
}

/// SplitMix64: a tiny, fully specified generator, so request streams
/// do not depend on any library's RNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seed that survives any JSON number path exactly.
    fn seed31(&mut self) -> u64 {
        self.next() >> 33
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_are_a_function_of_seed_and_index() {
        for w in Workload::ALL {
            assert_eq!(w.request_line(7, 3, 8), w.request_line(7, 3, 8));
            assert_ne!(w.request_line(7, 3, 8), w.request_line(8, 3, 8));
            assert_ne!(w.request_line(7, 3, 8), w.request_line(7, 4, 8));
            let req: helio_fleet::FleetRequest =
                serde_json::from_str(&w.request_line(7, 3, 8)).expect("request parses");
            assert_eq!(req.id, 3);
            assert_eq!(req.scenarios.len(), 8);
        }
    }
}
