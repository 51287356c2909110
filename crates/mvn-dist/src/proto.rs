//! The coordinator↔worker and worker↔worker message vocabulary, encoded with
//! the shared bit-exact JSON layer ([`wire`]).
//!
//! Everything numeric that must survive the trip bit-for-bit (`f64` tile
//! entries, integration limits, panel means) rides the shortest-roundtrip
//! `f64` rendering; `u64` seeds travel as decimal strings because a JSON
//! number is an `f64` and cannot hold every 64-bit seed exactly. Non-finite
//! limits use the serving layer's convention: `null` means `-inf` in `a` and
//! `+inf` in `b` (and the renderer already maps non-finite numbers to
//! `null`, so encoding is automatic).
//!
//! Message shapes (one JSON document per line, see [`wire::frame`]):
//!
//! * worker → coordinator: `{"type":"hello","listen":addr}` then one
//!   `{"type":"done","panels":[[p,mean,count],..],"comm_bytes":..,
//!   "fetches":..,"replayed":..,"reconnects":..,"compute_ns":..,
//!   "fetch_wait_ns":..,"serve_ns":..}` report (plus an optional
//!   `"trace":[..]` event list when tracing is enabled) or
//!   `{"type":"error","kind":..,..}`.
//! * coordinator → worker: `{"type":"setup",..}` with the rank, epoch, the
//!   peer address table, the problem, the panel assignment and the rank's
//!   owned initial tiles; then, possibly, `{"type":"epoch",..}` (the new
//!   peer address table after a lost rank was respawned); finally
//!   `{"type":"shutdown"}`.
//! * worker → worker (tile transport): `{"get":[i,j]}` answered by
//!   `{"tile":..}` — dense tiles as `{"r":rows,"c":cols,"d":[..]}`
//!   (column-major), low-rank tiles as `{"u":..,"v":..}` — or by
//!   `{"err":reason}` when the serving side cannot serve that tile (the
//!   fetcher re-resolves its route and retries).
//!
//! **Epochs.** Every recovery increments the cluster epoch, and the epoch
//! message carries it so a worker only ever moves its view forward. Stale
//! reports from a rank that was declared dead are rejected by the
//! coordinator's per-connection incarnation, not by epoch. Tile payloads are
//! epoch-*agnostic*: a finalized tile is immutable and every incarnation
//! reproduces it bit for bit, so a "stale" tile frame is still the right
//! answer.

use crate::plan::TileId;
use qmc::SampleKind;
use tile_la::DenseMatrix;
use tlr::{CompressionTol, LowRankBlock, Tile};
use wire::{parse_limits, Json};

/// The problem statement each worker receives (everything needed to replay
/// its share of the factor+sweep pipeline deterministically).
#[derive(Debug, Clone)]
pub struct ProblemMsg {
    /// The `(tolerance, rank cap)` of a TLR factor — the trailing updates
    /// recompress under them, and a cap of `usize::MAX` (uncapped) travels
    /// as `null` — or `None` for a dense factor.
    pub compression: Option<(CompressionTol, usize)>,
    /// Matrix dimension.
    pub n: usize,
    /// Tile size.
    pub nb: usize,
    /// Lower integration limits (`-inf` allowed).
    pub a: Vec<f64>,
    /// Upper integration limits (`+inf` allowed).
    pub b: Vec<f64>,
    /// QMC sample count.
    pub sample_size: usize,
    /// Sample-panel width.
    pub panel_width: usize,
    /// Sampling family.
    pub sample_kind: SampleKind,
    /// QMC shift seed.
    pub seed: u64,
    /// Worker threads per node (0 = available parallelism).
    pub workers: usize,
    /// End-to-end deadline budget in milliseconds, measured from setup
    /// receipt — bounds the worker's fetch-retry loops so a worker never
    /// outlives the coordinator's own deadline.
    pub deadline_ms: u64,
}

/// The full setup message for one rank.
#[derive(Debug, Clone)]
pub struct SetupMsg {
    /// This worker's node rank.
    pub rank: usize,
    /// Total node count.
    pub nodes: usize,
    /// Cluster epoch at setup time (0 for the initial deployment; a
    /// respawned incarnation starts at the epoch of its recovery).
    pub epoch: u64,
    /// Tile-server address where each rank's tiles are served (index =
    /// rank).
    pub peers: Vec<String>,
    /// The sweep panels this rank must compute and report (its round-robin
    /// share initially; a respawned incarnation only gets the panels its
    /// predecessor never reported).
    pub panels: Vec<usize>,
    /// The shared problem statement.
    pub problem: ProblemMsg,
    /// Initial (unfactored) values of the tiles this rank owns.
    pub tiles: Vec<(TileId, Tile)>,
}

/// A worker's report: panel sweep results plus transfer/recovery
/// accounting. Every incarnation of a rank sends exactly one.
#[derive(Debug, Clone)]
pub struct DoneMsg {
    /// `(panel index, panel probability mean, live-chain count)` triples.
    pub panels: Vec<(usize, f64, usize)>,
    /// Total bytes of tile payloads fetched from peers.
    pub comm_bytes: u64,
    /// Number of remote tile fetches (each tile crosses each edge once).
    pub fetches: u64,
    /// Factor tasks replayed from initial data for this report (0 outside
    /// recovery).
    pub replayed_tasks: u64,
    /// Peer connections re-established after an error or sever.
    pub reconnects: u64,
    /// Nanoseconds spent inside compute kernels (factor tasks + panel
    /// sweeps) for this report's work.
    pub compute_ns: u64,
    /// Nanoseconds blocked waiting for remote input tiles, including
    /// retries.
    pub fetch_wait_ns: u64,
    /// Nanoseconds spent serving tiles to peers, accrued up to report time
    /// (serving continues until shutdown).
    pub serve_ns: u64,
    /// Trace events recorded on the sender since the last report (empty
    /// unless tracing is enabled on the worker); the coordinator merges
    /// them into one multi-process timeline, one `pid` lane per rank.
    pub trace: Vec<obs::Event>,
}

/// Coordinator → worker recovery control: the new cluster view after a
/// lost rank was respawned.
#[derive(Debug, Clone)]
pub struct EpochMsg {
    /// The new epoch (strictly greater than any previous).
    pub epoch: u64,
    /// Updated per-rank tile-server address table.
    pub peers: Vec<String>,
}

/// Everything a worker can receive from the coordinator after setup.
#[derive(Debug, Clone)]
pub enum CtrlMsg {
    /// New cluster view (after a respawn).
    Epoch(EpochMsg),
    /// Tear down: all panels are in.
    Shutdown,
}

/// A typed failure report from a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerErrorMsg {
    /// The factorization hit a non-positive pivot (global index).
    Factorization {
        /// Global pivot index of the failure.
        pivot: usize,
    },
    /// Any other failure (transport, protocol, ...).
    Other {
        /// Short machine-readable kind.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

/// Everything a worker sends the coordinator after setup.
#[derive(Debug, Clone)]
pub enum WorkerMsg {
    /// Sweep finished on this rank.
    Done(DoneMsg),
    /// The pipeline failed on this rank.
    Error(WorkerErrorMsg),
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(x: usize) -> Json {
    Json::Num(x as f64)
}

fn get_usize(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("missing/invalid field {key:?}"))
}

fn get_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing/invalid field {key:?}"))
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing/invalid field {key:?}"))
}

/// `{"type":"hello","listen":addr}` — the worker's first message.
pub fn hello(listen: &str) -> Json {
    obj(vec![
        ("type", Json::Str("hello".into())),
        ("listen", Json::Str(listen.into())),
    ])
}

/// Parse a hello, returning the worker's tile-server address.
pub fn parse_hello(v: &Json) -> Result<String, String> {
    if get_str(v, "type")? != "hello" {
        return Err("expected a hello message".into());
    }
    Ok(get_str(v, "listen")?.to_string())
}

/// `{"type":"shutdown"}`.
pub fn shutdown() -> Json {
    obj(vec![("type", Json::Str("shutdown".into()))])
}

fn dense_to_json(d: &DenseMatrix) -> Json {
    obj(vec![
        ("r", num(d.nrows())),
        ("c", num(d.ncols())),
        (
            "d",
            Json::Arr(d.data().iter().map(|&x| Json::Num(x)).collect()),
        ),
    ])
}

fn dense_from_json(v: &Json) -> Result<DenseMatrix, String> {
    let rows = get_usize(v, "r")?;
    let cols = get_usize(v, "c")?;
    let data = v
        .get("d")
        .and_then(Json::as_arr)
        .ok_or("missing tile data")?;
    if data.len() != rows * cols {
        return Err(format!(
            "tile data length {} does not match {rows}x{cols}",
            data.len()
        ));
    }
    let vals = data
        .iter()
        .map(|x| x.as_f64().ok_or("non-numeric tile entry"))
        .collect::<Result<Vec<f64>, _>>()?;
    Ok(DenseMatrix::from_column_major(rows, cols, vals))
}

/// Encode a tile value (`{"r","c","d"}` dense, `{"u","v"}` low-rank).
pub fn tile_to_json(t: &Tile) -> Json {
    match t {
        Tile::Dense(d) => dense_to_json(d),
        Tile::LowRank(b) => obj(vec![("u", dense_to_json(&b.u)), ("v", dense_to_json(&b.v))]),
    }
}

/// Decode a tile value.
pub fn tile_from_json(v: &Json) -> Result<Tile, String> {
    if v.get("u").is_some() {
        let u = dense_from_json(v.get("u").unwrap())?;
        let vv = dense_from_json(v.get("v").ok_or("low-rank tile missing v")?)?;
        if u.ncols() != vv.ncols() {
            return Err("low-rank factors must share the rank dimension".into());
        }
        Ok(Tile::LowRank(LowRankBlock::new(u, vv)))
    } else {
        Ok(Tile::Dense(dense_from_json(v)?))
    }
}

/// `{"get":[i,j]}` — the tile transport request.
pub fn tile_request(id: TileId) -> Json {
    obj(vec![("get", Json::Arr(vec![num(id.0), num(id.1)]))])
}

/// Parse a tile request.
pub fn parse_tile_request(v: &Json) -> Result<TileId, String> {
    let arr = v
        .get("get")
        .and_then(Json::as_arr)
        .ok_or("expected a {\"get\":[i,j]} request")?;
    match arr {
        [i, j] => Ok((
            i.as_usize().ok_or("invalid tile row")?,
            j.as_usize().ok_or("invalid tile column")?,
        )),
        _ => Err("tile id must be a pair".into()),
    }
}

/// `{"tile":..}` — the tile transport response.
pub fn tile_response(t: &Tile) -> Json {
    obj(vec![("tile", tile_to_json(t))])
}

/// `{"err":reason}` — a tile-serving refusal (a malformed request, or a
/// tile this rank does not own). The fetcher treats it like a failed
/// connection: re-resolve the route and retry.
pub fn tile_error(reason: &str) -> Json {
    obj(vec![("err", Json::Str(reason.into()))])
}

/// Parse a tile response; a `{"err":..}` refusal surfaces as `Err`.
pub fn parse_tile_response(v: &Json) -> Result<Tile, String> {
    if let Some(reason) = v.get("err").and_then(Json::as_str) {
        return Err(format!("peer refused tile: {reason}"));
    }
    tile_from_json(v.get("tile").ok_or("missing tile payload")?)
}

fn sample_kind_str(k: SampleKind) -> &'static str {
    match k {
        SampleKind::PseudoRandom => "pseudo_random",
        SampleKind::RichtmyerLattice => "richtmyer_lattice",
        SampleKind::Halton => "halton",
    }
}

fn sample_kind_from(s: &str) -> Result<SampleKind, String> {
    match s {
        "pseudo_random" => Ok(SampleKind::PseudoRandom),
        "richtmyer_lattice" => Ok(SampleKind::RichtmyerLattice),
        "halton" => Ok(SampleKind::Halton),
        other => Err(format!("unknown sample kind {other:?}")),
    }
}

fn limits_to_json(xs: &[f64]) -> Json {
    // The renderer maps non-finite numbers to `null`, which is exactly the
    // wire convention for infinite limits.
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

fn problem_to_json(p: &ProblemMsg) -> Json {
    let kind = if p.compression.is_some() {
        "tlr"
    } else {
        "dense"
    };
    let mut fields = vec![("kind", Json::Str(kind.into()))];
    if let Some((tol, max_rank)) = p.compression {
        let (tk, tv) = match tol {
            CompressionTol::Absolute(x) => ("absolute", x),
            CompressionTol::Relative(x) => ("relative", x),
        };
        fields.push(("tol_kind", Json::Str(tk.into())));
        fields.push(("tol", Json::Num(tv)));
        fields.push((
            "max_rank",
            if max_rank == usize::MAX {
                Json::Null
            } else {
                num(max_rank)
            },
        ));
    }
    fields.extend([
        ("n", num(p.n)),
        ("nb", num(p.nb)),
        ("a", limits_to_json(&p.a)),
        ("b", limits_to_json(&p.b)),
        ("samples", num(p.sample_size)),
        ("panel", num(p.panel_width)),
        (
            "sample_kind",
            Json::Str(sample_kind_str(p.sample_kind).into()),
        ),
        ("seed", Json::Str(p.seed.to_string())),
        ("workers", num(p.workers)),
        ("deadline_ms", num(p.deadline_ms as usize)),
    ]);
    obj(fields)
}

fn problem_from_json(v: &Json) -> Result<ProblemMsg, String> {
    let compression = match get_str(v, "kind")? {
        "dense" => None,
        "tlr" => {
            let tol = match get_str(v, "tol_kind")? {
                "absolute" => CompressionTol::Absolute(get_f64(v, "tol")?),
                "relative" => CompressionTol::Relative(get_f64(v, "tol")?),
                other => return Err(format!("unknown tolerance kind {other:?}")),
            };
            let max_rank = match v.get("max_rank") {
                Some(Json::Null) | None => usize::MAX,
                Some(x) => x.as_usize().ok_or("invalid max_rank")?,
            };
            Some((tol, max_rank))
        }
        other => return Err(format!("unknown factor kind {other:?}")),
    };
    Ok(ProblemMsg {
        compression,
        n: get_usize(v, "n")?,
        nb: get_usize(v, "nb")?,
        a: parse_limits(v.get("a").ok_or("missing a")?, f64::NEG_INFINITY)?,
        b: parse_limits(v.get("b").ok_or("missing b")?, f64::INFINITY)?,
        sample_size: get_usize(v, "samples")?,
        panel_width: get_usize(v, "panel")?,
        sample_kind: sample_kind_from(get_str(v, "sample_kind")?)?,
        seed: get_str(v, "seed")?
            .parse::<u64>()
            .map_err(|e| format!("invalid seed: {e}"))?,
        workers: get_usize(v, "workers")?,
        deadline_ms: get_usize(v, "deadline_ms")? as u64,
    })
}

fn usize_arr(xs: &[usize]) -> Json {
    Json::Arr(xs.iter().map(|&x| num(x)).collect())
}

fn usize_arr_from(v: &Json, key: &str) -> Result<Vec<usize>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing {key}"))?
        .iter()
        .map(|x| x.as_usize().ok_or_else(|| format!("invalid {key} entry")))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())
}

fn peers_to_json(peers: &[String]) -> Json {
    Json::Arr(peers.iter().map(|p| Json::Str(p.clone())).collect())
}

fn peers_from(v: &Json) -> Result<Vec<String>, String> {
    v.get("peers")
        .and_then(Json::as_arr)
        .ok_or("missing peers")?
        .iter()
        .map(|p| p.as_str().map(str::to_string).ok_or("invalid peer address"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())
}

fn tiles_to_json(tiles: &[(TileId, Tile)]) -> Json {
    Json::Arr(
        tiles
            .iter()
            .map(|((i, j), t)| obj(vec![("i", num(*i)), ("j", num(*j)), ("t", tile_to_json(t))]))
            .collect(),
    )
}

fn tiles_from(v: &Json) -> Result<Vec<(TileId, Tile)>, String> {
    v.get("tiles")
        .and_then(Json::as_arr)
        .ok_or("missing tiles")?
        .iter()
        .map(|t| {
            Ok((
                (get_usize(t, "i")?, get_usize(t, "j")?),
                tile_from_json(t.get("t").ok_or("missing tile value")?)?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()
}

/// Encode the per-rank setup message.
pub fn setup_to_json(s: &SetupMsg) -> Json {
    obj(vec![
        ("type", Json::Str("setup".into())),
        ("rank", num(s.rank)),
        ("nodes", num(s.nodes)),
        ("epoch", num(s.epoch as usize)),
        ("peers", peers_to_json(&s.peers)),
        ("panels", usize_arr(&s.panels)),
        ("problem", problem_to_json(&s.problem)),
        ("tiles", tiles_to_json(&s.tiles)),
    ])
}

/// Decode the per-rank setup message.
pub fn setup_from_json(v: &Json) -> Result<SetupMsg, String> {
    if get_str(v, "type")? != "setup" {
        return Err("expected a setup message".into());
    }
    Ok(SetupMsg {
        rank: get_usize(v, "rank")?,
        nodes: get_usize(v, "nodes")?,
        epoch: get_usize(v, "epoch")? as u64,
        peers: peers_from(v)?,
        panels: usize_arr_from(v, "panels")?,
        problem: problem_from_json(v.get("problem").ok_or("missing problem")?)?,
        tiles: tiles_from(v)?,
    })
}

/// Encode an epoch (cluster view) update.
pub fn epoch_to_json(m: &EpochMsg) -> Json {
    obj(vec![
        ("type", Json::Str("epoch".into())),
        ("epoch", num(m.epoch as usize)),
        ("peers", peers_to_json(&m.peers)),
    ])
}

/// Decode any post-setup coordinator → worker control message.
pub fn ctrl_from_json(v: &Json) -> Result<CtrlMsg, String> {
    match get_str(v, "type")? {
        "shutdown" => Ok(CtrlMsg::Shutdown),
        "epoch" => Ok(CtrlMsg::Epoch(EpochMsg {
            epoch: get_usize(v, "epoch")? as u64,
            peers: peers_from(v)?,
        })),
        other => Err(format!("unexpected control message type {other:?}")),
    }
}

/// Encode one trace event as `[ph, label, ts_ns, tid, dur_ns, [[k,v],..]]`
/// (Chrome-trace phase letters; `dur_ns` is 0 for non-complete events).
fn trace_event_to_json(e: &obs::Event) -> Json {
    let (ph, dur_ns) = match e.kind {
        obs::EventKind::Begin => ("B", 0),
        obs::EventKind::End => ("E", 0),
        obs::EventKind::Complete { dur_ns } => ("X", dur_ns),
        obs::EventKind::Instant => ("i", 0),
    };
    Json::Arr(vec![
        Json::Str(ph.into()),
        Json::Str(e.label.into()),
        num(e.ts_ns as usize),
        num(e.tid as usize),
        num(dur_ns as usize),
        Json::Arr(
            e.args()
                .iter()
                .map(|&(k, v)| Json::Arr(vec![Json::Str(k.into()), num(v as usize)]))
                .collect(),
        ),
    ])
}

fn trace_event_from_json(v: &Json) -> Result<obs::Event, String> {
    let [ph, label, ts, tid, dur, args] = v.as_arr().ok_or("trace event must be an array")? else {
        return Err("trace event must have six elements".into());
    };
    let dur_ns = dur.as_usize().ok_or("invalid trace duration")? as u64;
    let kind = match ph.as_str().ok_or("invalid trace phase")? {
        "B" => obs::EventKind::Begin,
        "E" => obs::EventKind::End,
        "X" => obs::EventKind::Complete { dur_ns },
        "i" => obs::EventKind::Instant,
        other => return Err(format!("unknown trace phase {other:?}")),
    };
    // Labels and argument keys are re-interned on the receiving side; the
    // leak is bounded by the number of distinct instrumentation labels.
    let mut packed = [("", 0u64); obs::MAX_ARGS];
    let mut nargs = 0usize;
    for kv in args.as_arr().ok_or("invalid trace args")? {
        let [k, val] = kv.as_arr().ok_or("trace arg must be a pair")? else {
            return Err("trace arg must be a pair".into());
        };
        if nargs < obs::MAX_ARGS {
            packed[nargs] = (
                obs::intern(k.as_str().ok_or("invalid trace arg key")?),
                val.as_usize().ok_or("invalid trace arg value")? as u64,
            );
            nargs += 1;
        }
    }
    Ok(obs::Event {
        kind,
        label: obs::intern(label.as_str().ok_or("invalid trace label")?),
        ts_ns: ts.as_usize().ok_or("invalid trace timestamp")? as u64,
        tid: tid.as_usize().ok_or("invalid trace tid")? as u64,
        args: packed,
        nargs: nargs as u8,
    })
}

fn trace_from_json(v: &Json) -> Result<Vec<obs::Event>, String> {
    match v.get("trace").and_then(Json::as_arr) {
        Some(events) => events.iter().map(trace_event_from_json).collect(),
        None => Ok(Vec::new()),
    }
}

/// Encode a worker's final (done or error) message.
pub fn worker_msg_to_json(m: &WorkerMsg) -> Json {
    match m {
        WorkerMsg::Done(d) => {
            let mut fields = vec![
                ("type", Json::Str("done".into())),
                (
                    "panels",
                    Json::Arr(
                        d.panels
                            .iter()
                            .map(|&(p, mean, count)| {
                                Json::Arr(vec![num(p), Json::Num(mean), num(count)])
                            })
                            .collect(),
                    ),
                ),
                ("comm_bytes", num(d.comm_bytes as usize)),
                ("fetches", num(d.fetches as usize)),
                ("replayed", num(d.replayed_tasks as usize)),
                ("reconnects", num(d.reconnects as usize)),
                ("compute_ns", num(d.compute_ns as usize)),
                ("fetch_wait_ns", num(d.fetch_wait_ns as usize)),
                ("serve_ns", num(d.serve_ns as usize)),
            ];
            if !d.trace.is_empty() {
                fields.push((
                    "trace",
                    Json::Arr(d.trace.iter().map(trace_event_to_json).collect()),
                ));
            }
            obj(fields)
        }
        WorkerMsg::Error(WorkerErrorMsg::Factorization { pivot }) => obj(vec![
            ("type", Json::Str("error".into())),
            ("kind", Json::Str("factorization".into())),
            ("pivot", num(*pivot)),
        ]),
        WorkerMsg::Error(WorkerErrorMsg::Other { kind, message }) => obj(vec![
            ("type", Json::Str("error".into())),
            ("kind", Json::Str(kind.clone())),
            ("msg", Json::Str(message.clone())),
        ]),
    }
}

/// Decode a worker's final message.
pub fn worker_msg_from_json(v: &Json) -> Result<WorkerMsg, String> {
    match get_str(v, "type")? {
        "done" => {
            let panels = v
                .get("panels")
                .and_then(Json::as_arr)
                .ok_or("missing panels")?
                .iter()
                .map(|p| match p.as_arr() {
                    Some([p, mean, count]) => Ok((
                        p.as_usize().ok_or("invalid panel index")?,
                        mean.as_f64().ok_or("invalid panel mean")?,
                        count.as_usize().ok_or("invalid panel count")?,
                    )),
                    _ => Err("panel entry must be a triple".to_string()),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(WorkerMsg::Done(DoneMsg {
                panels,
                comm_bytes: get_usize(v, "comm_bytes")? as u64,
                fetches: get_usize(v, "fetches")? as u64,
                replayed_tasks: get_usize(v, "replayed")? as u64,
                reconnects: get_usize(v, "reconnects")? as u64,
                compute_ns: get_usize(v, "compute_ns")? as u64,
                fetch_wait_ns: get_usize(v, "fetch_wait_ns")? as u64,
                serve_ns: get_usize(v, "serve_ns")? as u64,
                trace: trace_from_json(v)?,
            }))
        }
        "error" => match get_str(v, "kind")? {
            "factorization" => Ok(WorkerMsg::Error(WorkerErrorMsg::Factorization {
                pivot: get_usize(v, "pivot")?,
            })),
            kind => Ok(WorkerMsg::Error(WorkerErrorMsg::Other {
                kind: kind.to_string(),
                message: v
                    .get("msg")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            })),
        },
        other => Err(format!("unexpected worker message type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_roundtrip_bitwise() {
        let d = DenseMatrix::from_fn(3, 2, |i, j| (i as f64 + 0.1) / (j as f64 + 0.3));
        let t = Tile::Dense(d.clone());
        let back = tile_from_json(&Json::parse(&tile_to_json(&t).to_string()).unwrap()).unwrap();
        assert_eq!(back.as_dense().data().len(), d.data().len());
        for (a, b) in back.as_dense().data().iter().zip(d.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let lr = Tile::LowRank(LowRankBlock::new(
            DenseMatrix::from_fn(4, 2, |i, j| 1.0 / (1.0 + i as f64 + j as f64)),
            DenseMatrix::from_fn(3, 2, |i, j| (i as f64 - j as f64) * 0.7),
        ));
        let back = tile_from_json(&Json::parse(&tile_to_json(&lr).to_string()).unwrap()).unwrap();
        match (&back, &lr) {
            (Tile::LowRank(x), Tile::LowRank(y)) => {
                assert_eq!(x.rank(), y.rank());
                for (a, b) in x.u.data().iter().zip(y.u.data()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                for (a, b) in x.v.data().iter().zip(y.v.data()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            _ => panic!("expected a low-rank tile"),
        }
        // Rank 0 survives too (zero off-diagonal tiles exist in practice).
        let zero = Tile::LowRank(LowRankBlock::zero(5, 4));
        let back = tile_from_json(&Json::parse(&tile_to_json(&zero).to_string()).unwrap()).unwrap();
        match back {
            Tile::LowRank(b) => {
                assert_eq!(b.rank(), 0);
                assert_eq!((b.nrows(), b.ncols()), (5, 4));
            }
            _ => panic!("expected a low-rank tile"),
        }
    }

    #[test]
    fn setup_roundtrips_including_infinite_limits_and_big_seeds() {
        let msg = SetupMsg {
            rank: 2,
            nodes: 4,
            epoch: 3,
            peers: vec!["a:1".into(), "b:2".into(), "c:3".into(), "d:4".into()],
            panels: vec![2, 6, 10],
            problem: ProblemMsg {
                compression: Some((CompressionTol::Absolute(1e-9), usize::MAX)),
                n: 96,
                nb: 24,
                a: vec![f64::NEG_INFINITY, -1.25],
                b: vec![0.75, f64::INFINITY],
                sample_size: 2000,
                panel_width: 64,
                sample_kind: SampleKind::RichtmyerLattice,
                seed: u64::MAX - 3, // not representable as f64
                workers: 2,
                deadline_ms: 120_000,
            },
            tiles: vec![((1, 0), Tile::Dense(DenseMatrix::identity(3)))],
        };
        let wire = setup_to_json(&msg).to_string();
        let back = setup_from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back.rank, 2);
        assert_eq!(back.nodes, 4);
        assert_eq!(back.epoch, 3);
        assert_eq!(back.panels, vec![2, 6, 10]);
        assert_eq!(back.problem.deadline_ms, 120_000);
        assert_eq!(back.peers, msg.peers);
        assert_eq!(back.problem.seed, u64::MAX - 3);
        assert_eq!(back.problem.a[0], f64::NEG_INFINITY);
        assert_eq!(back.problem.b[1], f64::INFINITY);
        assert_eq!(back.problem.a[1].to_bits(), (-1.25f64).to_bits());
        assert!(matches!(back.problem.compression, Some((_, usize::MAX))));
        assert_eq!(back.tiles.len(), 1);
        assert_eq!(back.tiles[0].0, (1, 0));
    }

    #[test]
    fn worker_msgs_roundtrip() {
        let done = WorkerMsg::Done(DoneMsg {
            panels: vec![(0, 0.25, 64), (4, 0.125, 64)],
            comm_bytes: 12345,
            fetches: 6,
            replayed_tasks: 11,
            reconnects: 1,
            compute_ns: 987_654_321,
            fetch_wait_ns: 55_000,
            serve_ns: 7_700,
            trace: vec![
                obs::Event {
                    kind: obs::EventKind::Begin,
                    label: obs::intern("dist_factor"),
                    ts_ns: 1_000,
                    tid: 2,
                    args: [(obs::intern("rank"), 3), ("", 0), ("", 0)],
                    nargs: 1,
                },
                obs::Event {
                    kind: obs::EventKind::End,
                    label: obs::intern("dist_factor"),
                    ts_ns: 2_500,
                    tid: 2,
                    args: [("", 0); obs::MAX_ARGS],
                    nargs: 0,
                },
                obs::Event {
                    kind: obs::EventKind::Complete { dur_ns: 640 },
                    label: obs::intern("dist_fetch_wait"),
                    ts_ns: 1_200,
                    tid: 2,
                    args: [(obs::intern("i"), 4), (obs::intern("j"), 1), ("", 0)],
                    nargs: 2,
                },
            ],
        });
        match worker_msg_from_json(&Json::parse(&worker_msg_to_json(&done).to_string()).unwrap())
            .unwrap()
        {
            WorkerMsg::Done(d) => {
                assert_eq!(d.panels.len(), 2);
                assert_eq!(d.panels[1], (4, 0.125, 64));
                assert_eq!(d.comm_bytes, 12345);
                assert_eq!((d.replayed_tasks, d.reconnects), (11, 1));
                assert_eq!(
                    (d.compute_ns, d.fetch_wait_ns, d.serve_ns),
                    (987_654_321, 55_000, 7_700)
                );
                assert_eq!(d.trace.len(), 3);
                assert_eq!(d.trace[0].kind, obs::EventKind::Begin);
                assert_eq!(d.trace[0].label, "dist_factor");
                assert_eq!(d.trace[0].args(), &[("rank", 3)]);
                assert_eq!(d.trace[1].kind, obs::EventKind::End);
                assert_eq!((d.trace[1].ts_ns, d.trace[1].tid), (2_500, 2));
                assert_eq!(d.trace[2].kind, obs::EventKind::Complete { dur_ns: 640 });
                assert_eq!(d.trace[2].args(), &[("i", 4), ("j", 1)]);
            }
            _ => panic!("expected done"),
        }
        let err = WorkerMsg::Error(WorkerErrorMsg::Factorization { pivot: 13 });
        match worker_msg_from_json(&Json::parse(&worker_msg_to_json(&err).to_string()).unwrap())
            .unwrap()
        {
            WorkerMsg::Error(e) => assert_eq!(e, WorkerErrorMsg::Factorization { pivot: 13 }),
            _ => panic!("expected error"),
        }
    }

    #[test]
    fn hello_request_and_shutdown_shapes() {
        assert_eq!(
            parse_hello(&Json::parse(&hello("127.0.0.1:9").to_string()).unwrap()).unwrap(),
            "127.0.0.1:9"
        );
        assert_eq!(
            parse_tile_request(&Json::parse(&tile_request((5, 2)).to_string()).unwrap()).unwrap(),
            (5, 2)
        );
        assert!(matches!(
            ctrl_from_json(&Json::parse(&shutdown().to_string()).unwrap()).unwrap(),
            CtrlMsg::Shutdown
        ));
    }

    #[test]
    fn done_report_missing_an_accounting_field_is_rejected() {
        // The coordinator spawns its own workers, so every report carries
        // every field: a missing one is a protocol error, not a silent 0.
        let report = concat!(
            "{\"type\":\"done\",\"panels\":[],\"comm_bytes\":9,\"fetches\":1,",
            "\"replayed\":0,\"reconnects\":0,\"compute_ns\":5,\"fetch_wait_ns\":3}"
        );
        let err = worker_msg_from_json(&Json::parse(report).unwrap()).unwrap_err();
        assert!(err.contains("serve_ns"), "{err}");
    }

    #[test]
    fn recovery_control_messages_roundtrip() {
        let ep = EpochMsg {
            epoch: 5,
            peers: vec!["x:1".into(), "y:2".into()],
        };
        match ctrl_from_json(&Json::parse(&epoch_to_json(&ep).to_string()).unwrap()).unwrap() {
            CtrlMsg::Epoch(m) => {
                assert_eq!(m.epoch, 5);
                assert_eq!(m.peers, ep.peers);
            }
            _ => panic!("expected epoch"),
        }

        // A serving-side refusal surfaces as a typed fetch error.
        let err = parse_tile_response(&Json::parse(&tile_error("moved").to_string()).unwrap());
        assert!(err.unwrap_err().contains("moved"));
    }
}
