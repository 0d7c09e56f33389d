//! The daemon's wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one frame: a 4-byte
//! big-endian `u32` byte length followed by that many bytes of UTF-8
//! JSON. Length prefixes make the stream self-delimiting without
//! requiring an incremental JSON parser, and the JSON reuses the
//! workspace's vendored dependency-free [`pevpm_obs::json`].
//!
//! Requests carry an `op` (`predict`, `batch`, `stats`, `ping`,
//! `shutdown`) and a client-chosen `id` echoed back on the response.
//! Responses are `{"id", "ok": true, "result": {...}}` on success and
//! `{"id", "ok": false, "code", "error"}` on failure, with `code` one of
//! `usage` / `input` / `budget` / `panic` — mirroring the CLI's exit-code
//! contract so a daemon refusal means exactly what the one-shot exit
//! status would — plus two transport-level codes: `overloaded` (the
//! request was shed before any evaluation; the response carries a
//! `retry_after_ms` hint and resending is always safe) and `timeout`
//! (the peer stalled mid-frame past the server's I/O deadline and the
//! connection is being closed).
//!
//! Result payloads contain only *deterministic* fields (no wall-clock
//! timings), so the byte-for-byte response to a request is independent of
//! cache temperature, batching, and thread count.

use std::io::{self, Read, Write};

use pevpm_obs::json::{self, escape, num, Json};

use crate::plan::{
    render_adaptive_line, render_failures, render_mc_headline, render_single_report, EvalOutcome,
    PlanError, PredictRequest,
};

/// Maximum accepted frame payload (16 MiB) unless the server configures
/// a different bound. Annotated sources are kilobytes; this is a
/// protect-the-daemon limit, not a capacity target.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Write one frame: 4-byte big-endian length, then the payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame. Returns `Ok(None)` on clean EOF at a frame boundary;
/// EOF mid-frame, an oversized length, or invalid UTF-8 are errors.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> io::Result<Option<String>> {
    match read_frame_deadline(r, max)? {
        FrameRead::Frame(f) => Ok(Some(f)),
        FrameRead::CleanEof => Ok(None),
        // Without a read deadline on the stream this variant cannot
        // occur; with one, an idle boundary timeout surfaces as an error
        // for callers of the legacy single-outcome API.
        FrameRead::IdleTimeout => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "read timed out waiting for a frame",
        )),
    }
}

/// Classified outcome of reading one frame from a stream that may carry
/// a read deadline. The distinction the server's robustness contract
/// needs: a peer that closes *between* frames is clean, one that stalls
/// *between* frames is merely idle (evictable without an error), and one
/// that stalls or disappears *inside* a frame is a protocol failure.
#[derive(Debug)]
pub enum FrameRead {
    /// One complete frame payload.
    Frame(String),
    /// The peer closed the stream at a frame boundary.
    CleanEof,
    /// The read deadline expired before any byte of the next frame
    /// arrived: the connection is idle, not broken.
    IdleTimeout,
}

/// Whether an I/O error is a read/write deadline expiry. Linux surfaces
/// `SO_RCVTIMEO`/`SO_SNDTIMEO` expiry as `EAGAIN` (`WouldBlock`), other
/// platforms as `TimedOut`; both mean the same thing here.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read one frame, classifying boundary conditions (see [`FrameRead`]).
/// Errors are structured for the caller's diagnostics:
///
/// * EOF or a deadline expiry *inside* a frame (prefix or body) is an
///   error (`UnexpectedEof` / `TimedOut`) whose message names where the
///   stream stalled;
/// * an oversized declared length or invalid UTF-8 is `InvalidData`,
///   refused before the payload is allocated or decoded.
pub fn read_frame_deadline<R: Read>(r: &mut R, max: usize) -> io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            // EOF before any prefix byte is a clean end-of-stream; EOF
            // inside the prefix is a truncated frame.
            Ok(0) if filled == 0 => return Ok(FrameRead::CleanEof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && filled == 0 => return Ok(FrameRead::IdleTimeout),
            Err(e) if is_timeout(&e) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("peer stalled inside a frame length prefix ({filled}/4 bytes)"),
                ))
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit {max}"),
        ));
    }
    let mut buf = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended inside a frame body ({got}/{len} bytes)"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("peer stalled inside a frame body ({got}/{len} bytes)"),
                ))
            }
            Err(e) => return Err(e),
        }
    }
    String::from_utf8(buf).map(FrameRead::Frame).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame is not UTF-8: {e}"),
        )
    })
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// One prediction against a named preloaded table.
    Predict {
        /// Client-chosen id, echoed on the response.
        id: String,
        /// Name of a table the daemon loaded at startup.
        table: String,
        /// The prediction request proper.
        req: Box<PredictRequest>,
    },
    /// Several predictions answered as one response, fanned out across
    /// the server's replication pool.
    Batch {
        /// Client-chosen id.
        id: String,
        /// `(table, request)` per item, in order.
        items: Vec<(String, PredictRequest)>,
    },
    /// The server's metrics registry as JSON.
    Stats {
        /// Client-chosen id.
        id: String,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen id.
        id: String,
    },
    /// Stop accepting connections and exit the serve loop.
    Shutdown {
        /// Client-chosen id.
        id: String,
    },
}

impl Request {
    /// The request's echo id.
    pub fn id(&self) -> &str {
        match self {
            Request::Predict { id, .. }
            | Request::Batch { id, .. }
            | Request::Stats { id }
            | Request::Ping { id }
            | Request::Shutdown { id } => id,
        }
    }
}

/// Best-effort id extraction so even a malformed request can be answered
/// with its own id (missing/unusable ids echo as `""`).
fn id_of(v: &Json) -> String {
    match v.get("id") {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => num(*n),
        _ => String::new(),
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, PlanError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| PlanError::usage(format!("request missing string field {key:?}")))
}

fn usize_field(v: &Json, key: &str) -> Result<Option<usize>, PlanError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
            Ok(Some(*n as usize))
        }
        Some(_) => Err(PlanError::usage(format!(
            "field {key:?} must be a small non-negative integer"
        ))),
    }
}

fn u64_field(v: &Json, key: &str) -> Result<Option<u64>, PlanError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
        Some(_) => Err(PlanError::usage(format!(
            "field {key:?} must be a non-negative integer"
        ))),
    }
}

fn bool_field(v: &Json, key: &str) -> Result<bool, PlanError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(PlanError::usage(format!("field {key:?} must be a boolean"))),
    }
}

/// Parse one predict body (the whole frame for `op: "predict"`, or one
/// element of `requests` for `op: "batch"`) into `(table, request)`.
pub fn parse_predict_body(v: &Json) -> Result<(String, PredictRequest), PlanError> {
    let model = str_field(v, "model")?;
    let table = match v.get("table") {
        None | Some(Json::Null) => "default".to_string(),
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err(PlanError::usage("field \"table\" must be a string")),
    };
    let procs = usize_field(v, "procs")?
        .ok_or_else(|| PlanError::usage("request missing integer field \"procs\""))?;
    let mut req = PredictRequest::new(model, procs);
    if let Some(Json::Str(m)) = v.get("mode") {
        req.mode = m.clone();
    } else if matches!(v.get("mode"), Some(j) if !matches!(j, Json::Null)) {
        return Err(PlanError::usage("field \"mode\" must be a string"));
    }
    req.pingpong = bool_field(v, "pingpong")?;
    req.exact_quantiles = bool_field(v, "exact_quantiles")?;
    if let Some(params) = v.get("params") {
        let obj = params
            .as_object()
            .ok_or_else(|| PlanError::usage("field \"params\" must be an object of numbers"))?;
        for (k, pv) in obj {
            let n = pv
                .as_num()
                .ok_or_else(|| PlanError::usage(format!("param {k:?} must be a number")))?;
            req.params.push((k.clone(), n));
        }
    }
    if let Some(seed) = u64_field(v, "seed")? {
        req.seed = seed;
    }
    if let Some(reps) = usize_field(v, "reps")? {
        req.reps = reps;
    }
    if let Some(threads) = usize_field(v, "threads")? {
        req.threads = threads;
    }
    req.quorum = usize_field(v, "quorum")?;
    req.precision = match v.get("precision") {
        None | Some(Json::Null) => None,
        Some(Json::Num(n)) if *n > 0.0 => Some(*n),
        Some(_) => {
            return Err(PlanError::usage(
                "field \"precision\" must be a positive number",
            ))
        }
    };
    req.min_reps = usize_field(v, "min_reps")?;
    req.max_reps = usize_field(v, "max_reps")?;
    req.antithetic = bool_field(v, "antithetic")?;
    req.max_steps = u64_field(v, "max_steps")?;
    req.max_virtual_secs = match v.get("max_virtual_secs") {
        None | Some(Json::Null) => None,
        Some(Json::Num(n)) if *n >= 0.0 => Some(*n),
        Some(_) => {
            return Err(PlanError::usage(
                "field \"max_virtual_secs\" must be a non-negative number",
            ))
        }
    };
    Ok((table, req))
}

/// Parse one request frame. Errors carry the best-effort id so the server
/// can still address its refusal.
pub fn parse_request(text: &str) -> Result<Request, (String, PlanError)> {
    let v = json::parse(text).map_err(|e| {
        (
            String::new(),
            PlanError::usage(format!("bad request JSON: {e}")),
        )
    })?;
    let id = id_of(&v);
    let op = str_field(&v, "op").map_err(|e| (id.clone(), e))?;
    match op.as_str() {
        "predict" => {
            let (table, req) = parse_predict_body(&v).map_err(|e| (id.clone(), e))?;
            Ok(Request::Predict {
                id,
                table,
                req: Box::new(req),
            })
        }
        "batch" => {
            let mut items = v
                .get("requests")
                .and_then(Json::as_array)
                .ok_or_else(|| {
                    (
                        id.clone(),
                        PlanError::usage("batch request missing array field \"requests\""),
                    )
                })?
                .iter()
                .map(parse_predict_body)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| (id.clone(), e))?;
            if items.is_empty() {
                return Err((id, PlanError::usage("batch \"requests\" must be non-empty")));
            }
            // Common random numbers: `"crn": true` rewrites every item to
            // one shared base seed (the frame-level `"seed"` if given,
            // else the first item's), so what-if arms that differ only in
            // parameters/tables are compared on *paired* noise — the
            // per-arm Monte-Carlo draws line up one-to-one and the
            // arm-difference variance collapses to the model difference.
            let crn = bool_field(&v, "crn").map_err(|e| (id.clone(), e))?;
            if crn {
                let base = match u64_field(&v, "seed").map_err(|e| (id.clone(), e))? {
                    Some(s) => s,
                    None => items[0].1.seed,
                };
                for (_, req) in &mut items {
                    req.seed = base;
                }
            }
            Ok(Request::Batch { id, items })
        }
        "stats" => Ok(Request::Stats { id }),
        "ping" => Ok(Request::Ping { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err((
            id,
            PlanError::usage(format!(
                "unknown op {other:?} (predict|batch|stats|ping|shutdown)"
            )),
        )),
    }
}

/// A success response around an already-rendered result JSON value.
pub fn ok_response(id: &str, result_json: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"ok\":true,\"result\":{result_json}}}",
        escape(id)
    )
}

/// A failure response: `code` is
/// `usage`/`input`/`budget`/`panic`/`timeout`.
pub fn err_response(id: &str, code: &str, message: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"ok\":false,\"code\":\"{code}\",\"error\":\"{}\"}}",
        escape(id),
        escape(message)
    )
}

/// A load-shedding refusal: the request was *not* evaluated (no cache,
/// budget, or replication state was touched), so resending after
/// `retry_after_ms` is always safe — including for `batch` frames.
pub fn overloaded_response(id: &str, retry_after_ms: u64) -> String {
    format!(
        "{{\"id\":\"{}\",\"ok\":false,\"code\":\"overloaded\",\
         \"error\":\"server at capacity; retry after the hint\",\
         \"retry_after_ms\":{retry_after_ms}}}",
        escape(id)
    )
}

/// Render one evaluation outcome as a result JSON value. Deterministic by
/// construction: numbers go through [`pevpm_obs::json::num`] (shortest
/// round-trip — bit-exact through parse), the report is the shared
/// deterministic lines, and no wall-clock field is included.
pub fn render_outcome(outcome: &EvalOutcome) -> String {
    match outcome {
        EvalOutcome::Single(p) => {
            format!(
                "{{\"kind\":\"single\",\"makespan\":{},\"procs\":{},\"messages\":{},\"report\":\"{}\"}}",
                num(p.makespan),
                p.nprocs,
                p.messages,
                escape(&render_single_report(p))
            )
        }
        EvalOutcome::Batch(mc) => {
            let mut failures = String::from("[");
            for (i, (idx, what)) in mc.failures.iter().enumerate() {
                if i > 0 {
                    failures.push(',');
                }
                failures.push_str(&format!("[{idx},\"{}\"]", escape(what)));
            }
            failures.push(']');
            let report = format!(
                "{}{}{}",
                render_mc_headline(mc, mc.runs.first().map_or(0, |p| p.nprocs)),
                render_adaptive_line(mc),
                render_failures(&mc.failures)
            );
            // Adaptive runs get extra deterministic fields; fixed-reps
            // responses stay byte-identical to the historical frames.
            let adaptive = mc.adaptive.as_ref().map_or(String::new(), |a| {
                format!(
                    ",\"adaptive\":{{\"precision\":{},\"confidence\":{},\"min_reps\":{},\
                     \"max_reps\":{},\"reps\":{},\"reps_saved\":{},\"rel_half_width\":{},\
                     \"converged\":{},\"drift\":{}}}",
                    num(a.precision),
                    num(a.confidence),
                    a.min_reps,
                    a.max_reps,
                    a.reps,
                    a.reps_saved(),
                    if a.rel_half_width.is_finite() {
                        num(a.rel_half_width)
                    } else {
                        "null".to_string()
                    },
                    a.converged,
                    a.drift
                )
            });
            format!(
                "{{\"kind\":\"mc\",\"mean\":{},\"stderr\":{},\"min\":{},\"max\":{},\"reps\":{}{adaptive},\"failures\":{failures},\"report\":\"{}\"}}",
                num(mc.mean),
                num(mc.stderr),
                num(mc.min),
                num(mc.max),
                mc.runs.len() + mc.failures.len(),
                escape(&report)
            )
        }
    }
}

/// Render a batch response: an array of per-item results in request
/// order, each `{"ok": true, "result": ...}` or
/// `{"ok": false, "code": ..., "error": ...}`.
pub fn render_batch(items: &[Result<String, (String, String)>]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match item {
            Ok(result) => out.push_str(&format!("{{\"ok\":true,\"result\":{result}}}")),
            Err((code, msg)) => out.push_str(&format!(
                "{{\"ok\":false,\"code\":\"{code}\",\"error\":\"{}\"}}",
                escape(msg)
            )),
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_at_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ping\",\"id\":\"1\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME).unwrap().as_deref(),
            Some("{\"op\":\"ping\",\"id\":\"1\"}")
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), None);
        // Truncated mid-frame: an error, not silent EOF.
        let mut partial = &buf[..3];
        assert!(read_frame(&mut partial, MAX_FRAME).is_err());
        // Oversized declared length is refused before allocation.
        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(read_frame(&mut &evil[..], MAX_FRAME).is_err());
    }

    /// A reader that yields its script of chunks, then reports a read
    /// deadline expiry (`WouldBlock`, as Linux `SO_RCVTIMEO` does).
    struct StallingReader {
        chunks: Vec<Vec<u8>>,
    }

    impl Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.chunks.is_empty() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            let chunk = self.chunks.remove(0);
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn deadline_reads_classify_idle_vs_mid_frame_stalls() {
        // No bytes at all: idle, not an error.
        let mut idle = StallingReader { chunks: vec![] };
        assert!(matches!(
            read_frame_deadline(&mut idle, MAX_FRAME).unwrap(),
            FrameRead::IdleTimeout
        ));
        // Two of four prefix bytes, then stall: a timeout error naming
        // the prefix.
        let mut prefix = StallingReader {
            chunks: vec![vec![0, 0]],
        };
        let e = read_frame_deadline(&mut prefix, MAX_FRAME).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        assert!(e.to_string().contains("length prefix"), "{e}");
        // A full prefix and a partial body, then stall: a timeout error
        // naming the body progress.
        let mut body = StallingReader {
            chunks: vec![8u32.to_be_bytes().to_vec(), b"abc".to_vec()],
        };
        let e = read_frame_deadline(&mut body, MAX_FRAME).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        assert!(e.to_string().contains("3/8"), "{e}");
        // The legacy API surfaces idle timeouts as TimedOut errors.
        let mut idle = StallingReader { chunks: vec![] };
        let e = read_frame(&mut idle, MAX_FRAME).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn overloaded_responses_carry_the_retry_hint() {
        let r = overloaded_response("r7", 125);
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("r7"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").and_then(Json::as_num), Some(125.0));
    }

    #[test]
    fn predict_requests_parse_with_defaults_and_overrides() {
        let r = parse_request(
            "{\"op\":\"predict\",\"id\":\"r1\",\"model\":\"src\",\"procs\":4,\
             \"params\":{\"rounds\":20},\"reps\":8,\"quorum\":6,\"seed\":7,\
             \"mode\":\"avg\",\"pingpong\":true,\"max_steps\":100}",
        )
        .unwrap();
        let Request::Predict { id, table, req } = r else {
            panic!("expected predict")
        };
        assert_eq!(id, "r1");
        assert_eq!(table, "default");
        assert_eq!(req.procs, 4);
        assert_eq!(req.mode, "avg");
        assert!(req.pingpong);
        assert_eq!(req.params, vec![("rounds".to_string(), 20.0)]);
        assert_eq!(req.reps, 8);
        assert_eq!(req.quorum, Some(6));
        assert_eq!(req.seed, 7);
        assert_eq!(req.max_steps, Some(100));
        assert_eq!(req.max_virtual_secs, None);
    }

    #[test]
    fn adaptive_fields_parse_and_validate() {
        let r = parse_request(
            "{\"op\":\"predict\",\"id\":\"a1\",\"model\":\"src\",\"procs\":4,\
             \"precision\":0.05,\"min_reps\":4,\"max_reps\":32,\"antithetic\":true}",
        )
        .unwrap();
        let Request::Predict { req, .. } = r else {
            panic!("expected predict")
        };
        assert_eq!(req.precision, Some(0.05));
        assert_eq!(req.min_reps, Some(4));
        assert_eq!(req.max_reps, Some(32));
        assert!(req.antithetic);

        // Absent fields stay absent: the legacy request shape is intact.
        let r = parse_request("{\"op\":\"predict\",\"id\":\"a2\",\"model\":\"m\",\"procs\":2}")
            .unwrap();
        let Request::Predict { req, .. } = r else {
            panic!("expected predict")
        };
        assert_eq!(req.precision, None);
        assert!(!req.antithetic);

        // A non-positive precision is refused at the parse layer.
        let (id, e) = parse_request(
            "{\"op\":\"predict\",\"id\":\"a3\",\"model\":\"m\",\"procs\":2,\"precision\":0}",
        )
        .unwrap_err();
        assert_eq!(id, "a3");
        assert!(e.message.contains("precision"), "{e}");
    }

    #[test]
    fn crn_batches_rewrite_item_seeds_to_a_common_base() {
        let r = parse_request(
            "{\"op\":\"batch\",\"id\":\"b\",\"crn\":true,\"requests\":[\
             {\"model\":\"a\",\"procs\":2,\"seed\":11},\
             {\"model\":\"b\",\"procs\":2,\"seed\":99},\
             {\"model\":\"c\",\"procs\":2}]}",
        )
        .unwrap();
        let Request::Batch { items, .. } = r else {
            panic!("expected batch")
        };
        assert!(items.iter().all(|(_, req)| req.seed == 11));

        // An explicit frame seed overrides the first item's.
        let r = parse_request(
            "{\"op\":\"batch\",\"id\":\"b\",\"crn\":true,\"seed\":7,\"requests\":[\
             {\"model\":\"a\",\"procs\":2,\"seed\":11},\
             {\"model\":\"b\",\"procs\":2,\"seed\":99}]}",
        )
        .unwrap();
        let Request::Batch { items, .. } = r else {
            panic!("expected batch")
        };
        assert!(items.iter().all(|(_, req)| req.seed == 7));

        // Without crn, per-item seeds survive untouched.
        let r = parse_request(
            "{\"op\":\"batch\",\"id\":\"b\",\"requests\":[\
             {\"model\":\"a\",\"procs\":2,\"seed\":11},\
             {\"model\":\"b\",\"procs\":2,\"seed\":99}]}",
        )
        .unwrap();
        let Request::Batch { items, .. } = r else {
            panic!("expected batch")
        };
        assert_eq!(items[0].1.seed, 11);
        assert_eq!(items[1].1.seed, 99);
    }

    #[test]
    fn malformed_requests_keep_their_id_for_the_error_response() {
        let (id, e) = parse_request("{\"op\":\"warp\",\"id\":\"x9\"}").unwrap_err();
        assert_eq!(id, "x9");
        assert!(e.message.contains("unknown op"), "{e}");
        let (id, _) = parse_request("{\"op\":\"predict\",\"id\":42}").unwrap_err();
        assert_eq!(id, "42");
        let (id, e) = parse_request("not json").unwrap_err();
        assert_eq!(id, "");
        assert!(e.message.contains("bad request JSON"), "{e}");
    }

    #[test]
    fn batch_requires_a_non_empty_request_array() {
        let (_, e) = parse_request("{\"op\":\"batch\",\"id\":\"b\",\"requests\":[]}").unwrap_err();
        assert!(e.message.contains("non-empty"), "{e}");
        let r = parse_request(
            "{\"op\":\"batch\",\"id\":\"b\",\"requests\":[\
             {\"model\":\"a\",\"procs\":2},{\"model\":\"b\",\"procs\":4,\"table\":\"t2\"}]}",
        )
        .unwrap();
        let Request::Batch { items, .. } = r else {
            panic!("expected batch")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].0, "default");
        assert_eq!(items[1].0, "t2");
    }

    #[test]
    fn responses_are_valid_json_with_escapes_intact() {
        let ok = ok_response("a\"b", "{\"kind\":\"single\"}");
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let err = err_response("r", "input", "bad\nline");
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("code").and_then(Json::as_str), Some("input"));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad\nline"));
    }
}
