//! The `serve` workload: closed-loop SQL clients against an in-process
//! [`Server`] over the encoded IMDB stand-in.
//!
//! Requests cycle through eight disjunctive multi-join statement shapes
//! with literals drawn from the seed (`VARIANTS` literal sets per shape).
//! After warm-up every request is a plan-cache hit that re-parses and
//! rebinds. Each response's row count is checked against an in-process
//! `QuerySession` run of the same statement, made during setup; those
//! reference sessions also serve the plan/exec layer breakdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use basilisk_catalog::Catalog;
use basilisk_plan::PlannerKind;
use basilisk_sched::WorkerPool;
use basilisk_serve::{Request, Server, ServerConfig};
use basilisk_sql::parse_select;
use basilisk_types::Result;
use basilisk_workload::imdb::{CHAR_MARKERS, COUNTRY_CODES, KEYWORD_MARKERS, TITLE_MARKERS};
use basilisk_workload::{generate_imdb, ImdbConfig};

use crate::check::Checker;
use crate::config::{Config, VARIANTS};
use crate::spans::{OpProfile, SpanLog};
use crate::suite::{session, Case, Side, Suite};

/// SplitMix64: the literal generator (seeded, dependency-free).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5E4E_5E4E_5E4E_5E4E)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct elements of `xs`.
    pub fn distinct<'a>(&mut self, xs: &[&'a str], k: usize) -> Vec<&'a str> {
        let mut pool: Vec<&str> = xs.to_vec();
        (0..k)
            .map(|_| pool.swap_remove(self.below(pool.len())))
            .collect()
    }

    /// Two distinct years `y1 < y2`, multiples of five in 1960..2015.
    fn years(&mut self) -> (usize, usize) {
        let a = self.below(11);
        let b = a + 1 + self.below(11 - a);
        (1960 + 5 * a, 1960 + 5 * b)
    }

    /// A rating literal in 6.0..8.9 (ratings are strings in the data).
    fn rating(&mut self) -> String {
        format!("{}.{}", 6 + self.below(3), self.below(10))
    }

    fn two_ratings(&mut self) -> (String, String) {
        let a = self.rating();
        loop {
            let b = self.rating();
            if b != a {
                return (a, b);
            }
        }
    }
}

/// Number of statement shapes.
pub const SHAPES: usize = 8;

/// The SQL of `shape` with literals from `rng`. Literals on the same
/// column are always distinct: equal bound values would collapse the
/// predicate DAG and force a re-plan instead of a cache hit.
pub fn shape_sql(shape: usize, rng: &mut Rng) -> String {
    const MI: &str = "JOIN movie_info_idx mi ON t.id = mi.movie_id";
    const MC: &str = "JOIN movie_companies mc ON t.id = mc.movie_id \
                      JOIN company_name cn ON mc.company_id = cn.id";
    const MK: &str = "JOIN movie_keyword mk ON t.id = mk.movie_id \
                      JOIN keyword k ON mk.keyword_id = k.id";
    const CI: &str = "JOIN cast_info ci ON t.id = ci.movie_id \
                      JOIN char_name chn ON ci.person_role_id = chn.id";
    let (y1, y2) = rng.years();
    let (r1, r2) = rng.two_ratings();
    let kw = rng.distinct(&KEYWORD_MARKERS, 3);
    let cc = COUNTRY_CODES[rng.below(COUNTRY_CODES.len())];
    let tm = TITLE_MARKERS[rng.below(TITLE_MARKERS.len())];
    let cm = CHAR_MARKERS[rng.below(CHAR_MARKERS.len())];
    match shape % SHAPES {
        0 => format!(
            "SELECT t.id, t.title FROM title t {MI} WHERE mi.info_type_id = 99 AND \
             ((t.production_year > {y1} AND mi.info > '{r1}') OR \
             (t.production_year > {y2} AND mi.info > '{r2}'))"
        ),
        1 => format!(
            "SELECT t.id, cn.name FROM title t {MC} WHERE \
             (cn.country_code = '{cc}' AND t.production_year > {y2}) OR \
             (mc.note IS NULL AND t.production_year > {y1} AND t.title LIKE '%{tm}%')"
        ),
        2 => format!(
            "SELECT t.id, k.keyword FROM title t {MK} WHERE \
             (k.keyword = '{}' AND t.production_year > {y1}) OR \
             (k.keyword IN ('{}', '{}') AND t.kind_id = 1)",
            kw[0], kw[1], kw[2]
        ),
        3 => format!(
            "SELECT t.id, chn.name FROM title t {CI} WHERE \
             (chn.name LIKE '%{cm}%' AND t.production_year > {y2}) OR \
             (ci.note IS NULL AND t.title LIKE '%{tm}%')"
        ),
        4 => format!(
            "SELECT t.id FROM title t {MI} {MK} WHERE mi.info_type_id = 99 AND \
             ((mi.info > '{r1}' AND k.keyword = '{}') OR \
             (t.production_year > {y1} AND k.keyword = '{}'))",
            kw[0], kw[1]
        ),
        5 => format!(
            "SELECT t.id, t.production_year FROM title t {MC} {MI} WHERE \
             (mi.info_type_id = 99 AND cn.country_code = '{cc}' AND mi.info > '{r1}') OR \
             (mc.note LIKE '%co-production%' AND t.production_year > {y2})"
        ),
        6 => format!(
            "SELECT t.id FROM title t {MK} {MC} WHERE \
             (k.keyword = '{}' AND cn.country_code = '{cc}') OR \
             (t.production_year BETWEEN {y1} AND {y2} AND mc.note IS NULL AND k.keyword = '{}')",
            kw[0], kw[1]
        ),
        _ => format!(
            "SELECT t.id, t.title FROM title t {CI} {MI} WHERE mi.info_type_id = 99 AND \
             ((chn.name LIKE '%{cm}%' AND mi.info > '{r2}') OR \
             (t.title ILIKE '%{tm}%' AND t.production_year > {y2}))"
        ),
    }
}

/// The server, its request set and the reference sessions.
pub struct ServeBench {
    pub server: Server,
    /// Distinct request texts; `suite.cases[i]` is request `i`'s
    /// reference session.
    pub requests: Vec<String>,
    pub suite: Suite,
    /// Seconds spent encoding the tables.
    pub encode_s: f64,
}

impl ServeBench {
    /// Generate and encode the data, start the server and build one
    /// reference session per distinct request.
    pub fn build(cfg: &Config, spans: &mut SpanLog) -> Result<ServeBench> {
        let tables = generate_imdb(&ImdbConfig {
            scale: cfg.scale,
            seed: cfg.seed,
        })?;
        let t0 = Instant::now();
        let encoded = spans.span("encode", None, || {
            tables
                .iter()
                .map(|t| t.encode())
                .collect::<Result<Vec<_>>>()
        })?;
        let encode_s = t0.elapsed().as_secs_f64();
        drop(tables);
        let mut catalog = Catalog::new();
        for t in encoded {
            catalog.add_table(t)?;
        }
        let config = ServerConfig::builder().workers(cfg.workers).build()?;
        let server = spans.span("server_new", None, || Server::new(catalog.clone(), config));
        let mut rng = Rng::new(cfg.seed);
        let mut requests = Vec::new();
        for _ in 0..VARIANTS {
            for shape in 0..SHAPES {
                requests.push(shape_sql(shape, &mut rng));
            }
        }
        // The reference sessions run on a pool of their own so the
        // server's scheduler counters see only served requests.
        let pool = Arc::new(WorkerPool::new(cfg.workers));
        let mut cases = Vec::new();
        for (i, sql) in requests.iter().enumerate() {
            let query = parse_select(sql)?.into_query();
            cases.push(Case {
                label: format!("s{}.v{}", i % SHAPES, i / SHAPES),
                session: session(&catalog, query, &pool, spans, i)?,
                baseline: PlannerKind::BDisj,
            });
        }
        Ok(ServeBench {
            server,
            requests,
            suite: Suite::new(cases, pool),
            encode_s,
        })
    }

    /// Reference row counts (one checked pass over the reference
    /// sessions), then one closed-loop warm-up round through the server.
    pub fn prepare(&mut self, cfg: &Config, check: &mut Checker) {
        self.suite.warm_up(check, cfg.plant_mismatch);
        let warm = closed_loop(self.target(), cfg, 0.0, 0, 1);
        check.merge(warm.check);
    }

    pub fn target(&self) -> Target<'_> {
        Target {
            server: &self.server,
            requests: &self.requests,
            reference: &self.suite.reference,
        }
    }
}

/// What the client threads share: the server, the request texts and
/// the reference row counts (the reference sessions stay behind; they
/// are not `Sync`).
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub server: &'a Server,
    pub requests: &'a [String],
    pub reference: &'a [Option<usize>],
}

/// One client request's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub request: usize,
    /// Submit to columns read, seconds.
    pub latency: f64,
    pub cache_hit: bool,
    /// `Response::timings.planning` (the bind time on cache hits).
    pub planning: f64,
    pub execution: f64,
    pub queue_wait: f64,
}

/// Everything a closed-loop run observed.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub check: Checker,
    pub tagged: Vec<Sample>,
    pub baseline: Vec<Sample>,
    /// Per round, the wall time of its tagged (resp. baseline) phase.
    pub tagged_phase: Vec<f64>,
    pub baseline_phase: Vec<f64>,
    pub wall: f64,
}

#[derive(Default)]
struct ClientOut {
    check: Checker,
    tagged: Vec<Sample>,
    baseline: Vec<Sample>,
    tagged_pass: Vec<f64>,
    baseline_pass: Vec<f64>,
}

/// Submit request `i` and read its columns; checks the row count.
fn one_request(
    bench: Target<'_>,
    i: usize,
    side: Side,
    client: &str,
    out: &mut ClientOut,
) -> Option<Sample> {
    let mut req = Request::sql(&bench.requests[i]).client(client);
    if side == Side::Baseline {
        req = req.planner(PlannerKind::BDisj);
    }
    let t0 = Instant::now();
    let resp = match bench.server.submit(req) {
        Ok(r) => r,
        Err(e) => {
            out.check
                .fail(format!("request {i}: {} {}", e.kind.as_str(), e.message));
            return None;
        }
    };
    let read_ok = resp.columns.iter().all(|(_, c)| c.len() == resp.row_count);
    let rows = resp.row_count;
    let sample = Sample {
        request: i,
        latency: 0.0,
        cache_hit: resp.cache_hit,
        planning: resp.timings.planning.as_secs_f64(),
        execution: resp.timings.execution.as_secs_f64(),
        queue_wait: resp.queue_wait.as_secs_f64(),
    };
    drop(resp);
    let latency = t0.elapsed().as_secs_f64();
    match bench.reference[i] {
        Some(r) if r == rows && read_ok => out.check.pass(),
        r => out.check.fail(format!(
            "request {i}: {rows} rows (columns consistent: {read_ok}), reference {r:?}"
        )),
    }
    Some(Sample { latency, ..sample })
}

/// Closed loop: `clients` threads, each sending every distinct request
/// once per phase (in a client-specific rotation) and waiting for each
/// reply before the next. A round is a tagged phase (default planner)
/// then a baseline phase (`BDisj`, BPushConj on AND roots); all clients
/// start each phase together. Rounds continue until `seconds` have
/// elapsed, at least `min_tagged` tagged requests completed and at least
/// `min_rounds` rounds ran.
pub fn closed_loop(
    bench: Target<'_>,
    cfg: &Config,
    seconds: f64,
    min_tagged: usize,
    min_rounds: usize,
) -> LoopResult {
    let n = bench.requests.len();
    let clients = cfg.clients;
    let barrier = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    // Whatever the arguments say, end well inside the per-run limit.
    let hard_stop = seconds.max(1.0) * 6.0 + 60.0;
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let name = format!("client-{c}");
                    let order: Vec<usize> = (0..n).map(|k| (k + c * n / clients) % n).collect();
                    let mut out = ClientOut::default();
                    let mut rounds = 0usize;
                    loop {
                        for side in [Side::Tagged, Side::Baseline] {
                            barrier.wait();
                            let p0 = Instant::now();
                            for &i in &order {
                                if let Some(s) = one_request(bench, i, side, &name, &mut out) {
                                    match side {
                                        Side::Tagged => out.tagged.push(s),
                                        Side::Baseline => out.baseline.push(s),
                                    }
                                }
                            }
                            let dt = p0.elapsed().as_secs_f64();
                            match side {
                                Side::Tagged => out.tagged_pass.push(dt),
                                Side::Baseline => out.baseline_pass.push(dt),
                            }
                        }
                        rounds += 1;
                        barrier.wait();
                        if c == 0 {
                            let elapsed = t0.elapsed().as_secs_f64();
                            let done = elapsed >= seconds
                                && rounds * n * clients >= min_tagged
                                && rounds >= min_rounds;
                            stop.store(done || elapsed >= hard_stop, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return out;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut r = LoopResult {
        wall: t0.elapsed().as_secs_f64(),
        ..LoopResult::default()
    };
    let rounds = outs.iter().map(|o| o.tagged_pass.len()).min().unwrap_or(0);
    for k in 0..rounds {
        // Clients start a phase together; it ends with the slowest.
        r.tagged_phase
            .push(outs.iter().map(|o| o.tagged_pass[k]).fold(0.0, f64::max));
        r.baseline_phase
            .push(outs.iter().map(|o| o.baseline_pass[k]).fold(0.0, f64::max));
    }
    for o in outs {
        r.check.merge(o.check);
        r.tagged.extend(o.tagged);
        r.baseline.extend(o.baseline);
    }
    r
}

/// Sum of the `basilisk_arena_{fresh,reused}_total` samples in the
/// server's metrics exposition (context and worker arenas together).
pub fn arena_counters(server: &Server) -> (f64, f64) {
    let text = server.metrics_prometheus();
    let mut fresh = 0.0;
    let mut reused = 0.0;
    for line in text.lines() {
        let value = || {
            line.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        if line.starts_with("basilisk_arena_fresh_total") {
            fresh += value();
        } else if line.starts_with("basilisk_arena_reused_total") {
            reused += value();
        }
    }
    (fresh, reused)
}

/// Submit every distinct request once with tracing on (one client,
/// default planner) and fold the returned span trees.
pub fn traced_requests(bench: &ServeBench, spans: &mut SpanLog, check: &mut Checker) -> OpProfile {
    let mut profile = OpProfile::default();
    for (i, sql) in bench.requests.iter().enumerate() {
        let res = spans.span("submit", Some(i), || {
            bench
                .server
                .submit(Request::sql(sql).client("traced").trace(true))
        });
        match res {
            Ok(resp) => match (bench.suite.reference[i], &resp.trace) {
                (Some(r), Some(tree)) if r == resp.row_count => {
                    profile.add(tree);
                    check.pass();
                }
                (r, tree) => check.fail(format!(
                    "traced request {i}: {} rows, reference {r:?}, trace present: {}",
                    resp.row_count,
                    tree.is_some()
                )),
            },
            Err(e) => check.fail(format!("traced request {i}: {}", e.message)),
        }
    }
    profile
}
