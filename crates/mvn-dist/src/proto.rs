//! The coordinator↔worker and worker↔worker message vocabulary, over the
//! shared wire layer ([`wire`]), on sockets made by [`link`] (Nagle off).
//!
//! Control messages are JSON lines. Limits and panel means ride the
//! shortest-roundtrip `f64` rendering, so they survive bit-for-bit; `u64`
//! seeds travel as decimal strings (a JSON number is an `f64`); `null` means
//! `-inf` in `a` and `+inf` in `b` (the renderer maps non-finite numbers to
//! `null`). Tile values follow their line as raw `f64` blocks
//! ([`wire::write_frame`]): 8 bytes an entry, the bits themselves. A tile
//! header is `{"tile":[i,j],"r":rows,"c":cols}` for a dense tile (one
//! column-major block) or `{"tile":[i,j],"u":[rows,k],"v":[cols,k]}` for a
//! low-rank `U·Vᵀ` (blocks `U`, then `V`).
//!
//! * worker → coordinator: `{"type":"hello","listen":addr}` then one
//!   `{"type":"done","panels":[[p,mean,count],..],"comm_bytes":..,
//!   "fetches":..,"replayed":..,"reconnects":..,"compute_ns":..,
//!   "fetch_wait_ns":..,"serve_ns":..}` report (plus an optional
//!   `"trace":[..]` event list when tracing is enabled) or
//!   `{"type":"error","kind":..,..}`.
//! * coordinator → worker: `{"type":"setup",..}` with the rank, epoch, the
//!   peer address table, the problem (`"kind":"dense"`, or `"kind":"tlr"`
//!   with `"tol"`, the absolute compression tolerance and the only TLR
//!   setting), the panel assignment and the headers
//!   of the rank's owned initial tiles, their blocks following in order;
//!   then, possibly, `{"type":"epoch",..}` (the new peer address table after
//!   a lost rank was respawned); finally `{"type":"shutdown"}`.
//! * worker → worker (tile transport): `{"get":[i,j]}` answered by the
//!   tile's header and blocks, or by `{"err":reason}` when the serving side
//!   cannot serve that tile (the fetcher re-resolves its route and retries).
//!
//! **Epochs.** Every recovery increments the cluster epoch, and the epoch
//! message carries it so a worker only ever moves its view forward. Stale
//! reports from a rank that was declared dead are rejected by the
//! coordinator's per-connection incarnation, not by epoch. Tile payloads are
//! epoch-*agnostic*: a finalized tile is immutable and every incarnation
//! reproduces it bit for bit, so a "stale" tile frame is still the right
//! answer.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;

use crate::plan::TileId;
use tile_la::DenseMatrix;
use tlr::{CompressionTol, LowRankBlock, Tile};
use wire::{
    parse_limits, read_block_bounded, read_msg, read_msg_bounded, write_frame, Json,
    MAX_FRAME_BYTES,
};

/// The problem statement each worker receives (everything needed to replay
/// its share of the factor+sweep pipeline deterministically).
#[derive(Debug, Clone)]
pub struct ProblemMsg {
    /// The tolerance of a TLR factor, under which the trailing updates
    /// recompress — on the wire `{"kind":"tlr","tol":τ}` — or `None` for a
    /// dense factor (`{"kind":"dense"}`).
    pub compression: Option<CompressionTol>,
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
    /// Total bytes of tile replies read off peer sockets (header lines plus
    /// raw blocks).
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

fn get_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
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

fn pair((a, b): (usize, usize)) -> Json {
    Json::Arr(vec![num(a), num(b)])
}

fn get_pair(v: &Json, key: &str) -> Result<(usize, usize), String> {
    match v.get(key).and_then(Json::as_arr) {
        Some([a, b]) => a.as_usize().zip(b.as_usize()),
        _ => None,
    }
    .ok_or_else(|| format!("missing/invalid pair {key:?}"))
}

/// Make `stream` one end of an `mvn-dist` link: Nagle's algorithm off, so a
/// frame is sent when it is written, not held until the peer ACKs the last
/// one. Every socket the crate connects or accepts goes through here.
pub fn link(stream: TcpStream) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// The tile header of `t` as tile `id` (see the module docs).
fn tile_header(id: TileId, t: &Tile) -> Json {
    let [a, b] = match t {
        Tile::Dense(d) => [("r", num(d.nrows())), ("c", num(d.ncols()))],
        Tile::LowRank(b) => [
            ("u", pair((b.u.nrows(), b.rank()))),
            ("v", pair((b.v.nrows(), b.rank()))),
        ],
    };
    obj(vec![("tile", pair(id)), a, b])
}

/// The blocks that follow `t`'s header.
fn tile_blocks(t: &Tile) -> Vec<&[f64]> {
    match t {
        Tile::Dense(d) => vec![d.data()],
        Tile::LowRank(b) => vec![b.u.data(), b.v.data()],
    }
}

/// Read one `rows × cols` block into a matrix. A shape whose size overflows
/// is refused before the block is read; a block of another length after.
fn read_matrix(r: &mut impl Read, (rows, cols): (usize, usize)) -> Result<DenseMatrix, String> {
    let len = rows
        .checked_mul(cols)
        .ok_or_else(|| format!("tile shape {rows}x{cols} overflows"))?;
    let data = read_block_bounded(r, MAX_FRAME_BYTES).map_err(|e| e.to_string())?;
    if data.len() != len {
        return Err(format!(
            "tile block of {} values does not match {rows}x{cols}",
            data.len()
        ));
    }
    Ok(DenseMatrix::from_column_major(rows, cols, data))
}

/// Read the blocks of the tile `header` describes, returning its id and
/// the tile.
fn read_tile_blocks(r: &mut impl Read, header: &Json) -> Result<(TileId, Tile), String> {
    let tile = if header.get("u").is_some() {
        let (u, v) = (get_pair(header, "u")?, get_pair(header, "v")?);
        if u.1 != v.1 {
            return Err("low-rank factors must share the rank dimension".into());
        }
        let u = read_matrix(r, u)?;
        Tile::LowRank(LowRankBlock::new(u, read_matrix(r, v)?))
    } else {
        let shape = (get_usize(header, "r")?, get_usize(header, "c")?);
        Tile::Dense(read_matrix(r, shape)?)
    };
    Ok((get_pair(header, "tile")?, tile))
}

/// `{"get":[i,j]}` — the tile transport request.
pub fn tile_request(id: TileId) -> Json {
    obj(vec![("get", pair(id))])
}

/// Parse a tile request.
pub fn parse_tile_request(v: &Json) -> Result<TileId, String> {
    get_pair(v, "get").map_err(|_| "expected a {\"get\":[i,j]} request".into())
}

/// Send tile `id` as a tile reply: its header, then its blocks, in one
/// flush.
pub fn write_tile<W: Write>(w: W, id: TileId, t: &Tile) -> io::Result<()> {
    write_frame(w, &tile_header(id, t), &tile_blocks(t))
}

/// `{"err":reason}` — a tile-serving refusal (a malformed request, or a
/// tile this rank does not own). The fetcher treats it like a failed
/// connection: re-resolve the route and retry.
pub fn tile_error(reason: &str) -> Json {
    obj(vec![("err", Json::Str(reason.into()))])
}

/// Read the reply to a request for tile `id`: the tile and the bytes the
/// reply took off the socket (header line plus blocks). `Ok(None)` is a
/// clean close; a `{"err":..}` refusal, a reply for another tile, and a
/// malformed, oversized or torn frame are `Err`.
pub fn read_tile(r: &mut impl BufRead, id: TileId) -> Result<Option<(Tile, u64)>, String> {
    let Some((header, line)) = read_msg_bounded(r, MAX_FRAME_BYTES).map_err(|e| e.to_string())?
    else {
        return Ok(None);
    };
    if let Some(reason) = header.get("err").and_then(Json::as_str) {
        return Err(format!("peer refused tile: {reason}"));
    }
    let (got, tile) = read_tile_blocks(r, &header)?;
    if got != id {
        return Err(format!("asked for tile {id:?}, got {got:?}"));
    }
    let blocks: usize = tile_blocks(&tile).iter().map(|b| 8 + 8 * b.len()).sum();
    Ok(Some((tile, (line + blocks) as u64)))
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
    if let Some(CompressionTol::Absolute(tol)) = p.compression {
        fields.push(("tol", Json::Num(tol)));
    }
    fields.extend([
        ("n", num(p.n)),
        ("nb", num(p.nb)),
        ("a", limits_to_json(&p.a)),
        ("b", limits_to_json(&p.b)),
        ("samples", num(p.sample_size)),
        ("panel", num(p.panel_width)),
        ("seed", Json::Str(p.seed.to_string())),
        ("workers", num(p.workers)),
        ("deadline_ms", num(p.deadline_ms as usize)),
    ]);
    obj(fields)
}

fn problem_from_json(v: &Json) -> Result<ProblemMsg, String> {
    let compression = match get_str(v, "kind")? {
        "dense" => None,
        "tlr" => Some(CompressionTol::Absolute(get_f64(v, "tol")?)),
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
    (get_arr(v, key)?.iter())
        .map(|x| x.as_usize().ok_or_else(|| format!("invalid {key} entry")))
        .collect()
}

fn peers_to_json(peers: &[String]) -> Json {
    Json::Arr(peers.iter().map(|p| Json::Str(p.clone())).collect())
}

fn peers_from(v: &Json) -> Result<Vec<String>, String> {
    (get_arr(v, "peers")?.iter())
        .map(|p| {
            p.as_str()
                .map(str::to_string)
                .ok_or("invalid peer address".into())
        })
        .collect()
}

/// Send the per-rank setup message: its line, then the initial tiles'
/// blocks, in one flush.
pub fn write_setup<W: Write>(w: W, s: &SetupMsg) -> io::Result<()> {
    let header = obj(vec![
        ("type", Json::Str("setup".into())),
        ("rank", num(s.rank)),
        ("nodes", num(s.nodes)),
        ("epoch", num(s.epoch as usize)),
        ("peers", peers_to_json(&s.peers)),
        ("panels", usize_arr(&s.panels)),
        ("problem", problem_to_json(&s.problem)),
        (
            "tiles",
            Json::Arr(s.tiles.iter().map(|(id, t)| tile_header(*id, t)).collect()),
        ),
    ]);
    let blocks: Vec<&[f64]> = s.tiles.iter().flat_map(|(_, t)| tile_blocks(t)).collect();
    write_frame(w, &header, &blocks)
}

/// Read the per-rank setup message.
pub fn read_setup(r: &mut impl BufRead) -> Result<SetupMsg, String> {
    let v = read_msg(r)
        .map_err(|e| e.to_string())?
        .ok_or("closed before setup")?;
    if get_str(&v, "type")? != "setup" {
        return Err("expected a setup message".into());
    }
    Ok(SetupMsg {
        rank: get_usize(&v, "rank")?,
        nodes: get_usize(&v, "nodes")?,
        epoch: get_usize(&v, "epoch")? as u64,
        peers: peers_from(&v)?,
        panels: usize_arr_from(&v, "panels")?,
        problem: problem_from_json(v.get("problem").ok_or("missing problem")?)?,
        tiles: (get_arr(&v, "tiles")?.iter())
            .map(|h| read_tile_blocks(r, h))
            .collect::<Result<_, _>>()?,
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
            let panels = (get_arr(v, "panels")?.iter())
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
    use std::net::TcpListener;

    fn roundtrip(id: TileId, t: &Tile) -> (Tile, u64, usize) {
        let mut bytes = Vec::new();
        write_tile(&mut bytes, id, t).unwrap();
        let (back, n) = read_tile(&mut &bytes[..], id).unwrap().unwrap();
        (back, n, bytes.len())
    }

    fn same_bits(a: &DenseMatrix, b: &DenseMatrix) -> bool {
        (a.nrows(), a.ncols()) == (b.nrows(), b.ncols())
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn tiles_roundtrip_bitwise() {
        let mut d = DenseMatrix::from_fn(3, 2, |i, j| (i as f64 + 0.1) / (j as f64 + 0.3));
        d.set(2, 1, f64::from_bits(0x7ff8_0000_0000_abcd)); // NaN payloads survive too
        let (back, _, _) = roundtrip((1, 0), &Tile::Dense(d.clone()));
        assert!(same_bits(back.as_dense(), &d));

        let lr = LowRankBlock::new(
            DenseMatrix::from_fn(4, 2, |i, j| 1.0 / (1.0 + i as f64 + j as f64)),
            DenseMatrix::from_fn(3, 2, |i, j| (i as f64 - j as f64) * 0.7),
        );
        match roundtrip((2, 1), &Tile::LowRank(lr.clone())).0 {
            Tile::LowRank(x) => assert!(same_bits(&x.u, &lr.u) && same_bits(&x.v, &lr.v)),
            _ => panic!("expected a low-rank tile"),
        }
        // Rank 0 survives too (zero off-diagonal tiles exist in practice).
        match roundtrip((3, 0), &Tile::LowRank(LowRankBlock::zero(5, 4))).0 {
            Tile::LowRank(b) => {
                assert_eq!(b.rank(), 0);
                assert_eq!((b.nrows(), b.ncols()), (5, 4));
            }
            _ => panic!("expected a low-rank tile"),
        }
    }

    #[test]
    fn tile_reply_bytes_are_the_header_line_plus_8_per_entry() {
        // `comm_bytes` counts what crossed the socket: the header line, an
        // 8-byte count per block and 8 bytes per entry.
        let dense = Tile::Dense(DenseMatrix::identity(10));
        let line = r#"{"tile":[4.0,2.0],"r":10.0,"c":10.0}"#.len() + 1;
        assert_eq!(roundtrip((4, 2), &dense).1, (line + 8 + 8 * 100) as u64);
        let lr = LowRankBlock::new(DenseMatrix::zeros(10, 3), DenseMatrix::zeros(7, 3));
        let line = r#"{"tile":[4.0,1.0],"u":[10.0,3.0],"v":[7.0,3.0]}"#.len() + 1;
        let (_, n, sent) = roundtrip((4, 1), &Tile::LowRank(lr));
        assert_eq!(
            (n, sent),
            ((line + 8 + 8 * 30 + 8 + 8 * 21) as u64, line + 424)
        );
    }

    #[test]
    fn hostile_tile_frames_end_in_typed_errors() {
        let block = |count: u64, values: &[f64]| -> Vec<u8> {
            let values = values.iter().flat_map(|x| x.to_le_bytes());
            count.to_le_bytes().into_iter().chain(values).collect()
        };
        let four = block(4, &[1.0, 2.0, 3.0, 4.0]);
        let dense = r#"{"tile":[1,0],"r":2,"c":2}"#;
        let overflow = format!(r#"{{"tile":[1,0],"r":{},"c":4}}"#, usize::MAX / 2 + 1);
        let read = |line: &str, blocks: &[u8]| {
            let frame = [format!("{line}\n").as_bytes(), blocks].concat();
            read_tile(&mut &frame[..], (1, 0))
        };
        assert!(read(dense, &four).is_ok_and(|t| t.is_some()));
        for (line, blocks, want) in [
            // A block count over the cap.
            (dense, block(u64::MAX, &[]), "cap"),
            (dense, block(MAX_FRAME_BYTES as u64 / 8 + 1, &[]), "cap"),
            // r·c that overflows, or disagrees with the block count.
            (overflow.as_str(), four.clone(), "overflows"),
            (
                r#"{"tile":[1,0],"r":2,"c":3}"#,
                four.clone(),
                "does not match 2x3",
            ),
            (
                r#"{"tile":[1,0],"u":[2,1],"v":[2,2]}"#,
                four.clone(),
                "rank",
            ),
            // A block torn mid-f64, a header with no block after it, and a
            // low-rank tile missing its second block.
            (dense, four[..8 + 8 * 2 + 3].to_vec(), "torn"),
            (dense, Vec::new(), "torn"),
            (
                r#"{"tile":[1,0],"u":[2,1],"v":[2,1]}"#,
                block(2, &[1.0, 2.0]),
                "torn",
            ),
            // A malformed header, and a reply for another tile.
            (r#"{"tile":[1,0],"r":2"#, four.clone(), "malformed"),
            (r#"{"tile":[2,0],"r":2,"c":2}"#, four.clone(), "got (2, 0)"),
        ] {
            let err = read(line, &blocks).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
        }
        // A torn header line is an error; a clean close between frames is not.
        assert!(read_tile(&mut &dense.as_bytes()[..9], (1, 0)).is_err());
        assert!(read_tile(&mut &b""[..], (1, 0)).unwrap().is_none());
    }

    #[test]
    fn both_ends_of_a_link_send_without_delay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = link(TcpStream::connect(listener.local_addr().unwrap()).unwrap()).unwrap();
        let server = link(listener.accept().unwrap().0).unwrap();
        assert!(client.nodelay().unwrap());
        assert!(server.nodelay().unwrap());
        // The cloned halves the crate reads from share the setting.
        assert!(client.try_clone().unwrap().nodelay().unwrap());
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
                compression: Some(CompressionTol::Absolute(1e-9)),
                n: 96,
                nb: 24,
                a: vec![f64::NEG_INFINITY, -1.25],
                b: vec![0.75, f64::INFINITY],
                sample_size: 2000,
                panel_width: 64,
                seed: u64::MAX - 3, // not representable as f64
                workers: 2,
                deadline_ms: 120_000,
            },
            tiles: vec![
                ((1, 0), Tile::Dense(DenseMatrix::identity(3))),
                (
                    (2, 1),
                    Tile::LowRank(LowRankBlock::new(
                        DenseMatrix::from_fn(3, 1, |i, _| 0.1 * i as f64),
                        DenseMatrix::from_fn(3, 1, |i, _| -1.0 / (1.0 + i as f64)),
                    )),
                ),
            ],
        };
        let mut wire = Vec::new();
        write_setup(&mut wire, &msg).unwrap();
        wire.extend_from_slice(b"{\"type\":\"shutdown\"}\n");
        let mut r = &wire[..];
        let back = read_setup(&mut r).unwrap();
        assert!(matches!(
            ctrl_from_json(&read_msg(&mut r).unwrap().unwrap()),
            Ok(CtrlMsg::Shutdown)
        ));
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
        assert_eq!(
            back.problem.compression,
            Some(CompressionTol::Absolute(1e-9))
        );
        // A TLR problem carries its tolerance and nothing else about the
        // compression.
        let setup = read_msg(&mut &wire[..]).unwrap().unwrap();
        let Some(Json::Obj(problem)) = setup.get("problem").cloned() else {
            panic!("setup without a problem object")
        };
        let keys: Vec<&str> = problem.iter().map(|(k, _)| k.as_str()).collect();
        let want = ["kind", "tol", "n", "nb", "a", "b", "samples", "panel"];
        assert_eq!(&keys[..8], want);
        assert_eq!(&keys[8..], ["seed", "workers", "deadline_ms"]);
        assert_eq!(back.tiles.len(), 2);
        assert_eq!(back.tiles[0].0, (1, 0));
        assert!(same_bits(
            back.tiles[0].1.as_dense(),
            &DenseMatrix::identity(3)
        ));
        match (&back.tiles[1], &msg.tiles[1]) {
            (((2, 1), Tile::LowRank(x)), (_, Tile::LowRank(y))) => {
                assert!(same_bits(&x.u, &y.u) && same_bits(&x.v, &y.v))
            }
            _ => panic!("expected low-rank tile (2, 1)"),
        }
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
        let mut refusal = Vec::new();
        wire::write_msg(&mut refusal, &tile_error("moved")).unwrap();
        let err = read_tile(&mut &refusal[..], (0, 0));
        assert!(err.unwrap_err().contains("moved"));
    }
}
