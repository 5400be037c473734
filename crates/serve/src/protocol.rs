//! LDJSON wire protocol: one JSON object per line, over any
//! `BufRead`/`Write` pair (the CLI wires stdin/stdout or a TCP socket).
//!
//! Requests (`op` selects the verb):
//!
//! ```text
//! {"op":"submit","dataset":"data.csv","k":8,"l":4,"a":20,"b":4,"seed":7,
//!  "algo":"fast","backend":"cpu","devices":1,"deadline_ms":5000,"labels":false}
//! {"op":"wait","id":0}        waits for job 0 and emits its result
//! {"op":"drain"}              waits for every pending job, one result line each
//! {"op":"cancel","id":0}      requests cooperative cancellation
//! {"op":"metrics"}            emits the service metrics report
//! {"op":"shutdown"}           acknowledges and ends the session
//! ```
//!
//! Streaming verbs (see [`crate::stream`]) drive per-connection live
//! datasets; mutations are O(batch) and `stream.query` re-clusters only
//! when the dataset is dirty:
//!
//! ```text
//! {"op":"stream.open","name":"live","d":3,"k":2,"l":2,"a":10,"b":3,"seed":7,"backend":"cpu"}
//! {"op":"stream.append","name":"live","rows":[[1,2,3],[4,5,6]]}
//! {"op":"stream.retire","name":"live","pids":[0]}
//! {"op":"stream.window","name":"live","cap":5000}
//! {"op":"stream.query","name":"live","labels":true,"deadline_ms":5000}
//! {"op":"stream.close","name":"live"}
//! ```
//!
//! Error lines carry a `job_kind` field (`"batch"` or `"stream"`) so
//! clients multiplexing both pipelines can route failures.
//!
//! Result lines echo the backend the job executed on (`cpu`, `gpu` or
//! `sharded`), so clients mixing backends can attribute each response:
//!
//! ```text
//! {"op":"result","id":0,"ok":true,"backend":"cpu","k":2,"cost":...,...}
//! {"op":"result","id":1,"ok":false,"backend":"gpu","cancelled":true,...}
//! ```
//!
//! Every request gets exactly one response line (`drain` gets one per
//! drained job plus a summary), so a client can pipeline submissions —
//! submitting several jobs before the first `wait`/`drain` is what lets the
//! scheduler coalesce them into one grid run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::time::Duration;

use proclus::{Algo, Backend, Params, OUTLIER};
use proclus_telemetry::json::{self, escape, Value};

use crate::job::JobHandle;
use crate::registry::DatasetRef;
use crate::server::Server;
use crate::JobRequest;

struct Pending {
    handle: JobHandle,
    want_labels: bool,
    backend: Backend,
}

/// Protocol error line. `job_kind` attributes the failure to the batch
/// pipeline (`submit`/`wait`/...) or a streaming session (`stream.*`), so
/// clients multiplexing both on one connection can route errors.
fn err_line(id: Option<u64>, job_kind: &str, msg: &str) -> String {
    match id {
        Some(id) => format!(
            "{{\"op\":\"error\",\"id\":{id},\"job_kind\":\"{job_kind}\",\"error\":\"{}\"}}",
            escape(msg)
        ),
        None => format!(
            "{{\"op\":\"error\",\"job_kind\":\"{job_kind}\",\"error\":\"{}\"}}",
            escape(msg)
        ),
    }
}

fn get_usize(v: &Value, key: &str) -> Option<usize> {
    v.get(key).and_then(Value::as_f64).map(|f| f as usize)
}

fn parse_submit(v: &Value) -> Result<(JobRequest, bool), String> {
    let dataset = v
        .get("dataset")
        .and_then(Value::as_str)
        .ok_or("submit: missing string 'dataset'")?;
    let k = get_usize(v, "k").ok_or("submit: missing numeric 'k'")?;
    let l = get_usize(v, "l").ok_or("submit: missing numeric 'l'")?;
    let mut params = Params::new(k, l);
    if let Some(a) = get_usize(v, "a") {
        params = params.with_a(a);
    }
    if let Some(b) = get_usize(v, "b") {
        params = params.with_b(b);
    }
    if let Some(seed) = v.get("seed").and_then(Value::as_f64) {
        params = params.with_seed(seed as u64);
    }
    if let Some(devices) = get_usize(v, "devices") {
        let devices =
            std::num::NonZeroUsize::new(devices).ok_or("submit: 'devices' must be at least 1")?;
        params = params.with_devices(devices);
    }
    let mut req = JobRequest::new(DatasetRef::path(dataset), params);
    if let Some(algo) = v.get("algo").and_then(Value::as_str) {
        req = req.with_algo(Algo::parse(algo).ok_or_else(|| format!("unknown algo `{algo}`"))?);
    }
    if let Some(backend) = v.get("backend").and_then(Value::as_str) {
        req = req.with_backend(
            Backend::parse(backend).ok_or_else(|| format!("unknown backend `{backend}`"))?,
        );
    }
    if let Some(ms) = v.get("deadline_ms").and_then(Value::as_f64) {
        req = req.with_deadline(Duration::from_millis(ms as u64));
    }
    let want_labels = matches!(v.get("labels"), Some(Value::Bool(true)));
    Ok((req, want_labels))
}

fn result_line(id: u64, p: &Pending) -> String {
    match p.handle.wait() {
        Ok(out) => {
            let c = &out.clustering;
            let outliers = c.labels.iter().filter(|&&l| l == OUTLIER).count();
            let mut line = format!(
                "{{\"op\":\"result\",\"id\":{id},\"ok\":true,\"backend\":\"{}\",\"k\":{},\
                 \"cost\":{},\"outliers\":{outliers},\"batch_width\":{},\"queue_wait_us\":{},\
                 \"service_us\":{}",
                p.backend.name(),
                c.k(),
                json::fmt_f64(c.refined_cost),
                out.batch_width,
                out.queue_wait_us,
                out.service_us,
            );
            if p.want_labels {
                line.push_str(",\"labels\":[");
                for (i, l) in c.labels.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "{l}");
                }
                line.push(']');
            }
            if let Some(t) = &out.telemetry {
                line.push_str(",\"telemetry\":");
                line.push_str(&t.to_json());
            }
            line.push('}');
            line
        }
        Err(e) => format!(
            "{{\"op\":\"result\",\"id\":{id},\"ok\":false,\"backend\":\"{}\",\
             \"cancelled\":{},\"error\":\"{}\"}}",
            p.backend.name(),
            e.is_cancelled(),
            escape(&e.to_string())
        ),
    }
}

/// Serves one LDJSON session until `shutdown`, EOF, or an I/O error.
/// Jobs still pending at session end are drained (awaited, results
/// discarded) so their worker slots are not abandoned mid-flight.
pub fn serve_connection<R: BufRead, W: Write>(
    server: &Server,
    reader: R,
    writer: &mut W,
) -> std::io::Result<()> {
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut streams = crate::stream::StreamSessions::default();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let v = match json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                writeln!(
                    writer,
                    "{}",
                    err_line(None, "batch", &format!("bad json: {e}"))
                )?;
                continue;
            }
        };
        let op = v.get("op").and_then(Value::as_str).unwrap_or("");
        match op {
            "submit" => match parse_submit(&v) {
                Ok((req, want_labels)) => {
                    let backend = req.backend;
                    match server.submit(req) {
                        Ok(handle) => {
                            let id = handle.id().0;
                            writeln!(writer, "{{\"op\":\"submitted\",\"id\":{id}}}")?;
                            pending.insert(
                                id,
                                Pending {
                                    handle,
                                    want_labels,
                                    backend,
                                },
                            );
                            order.push(id);
                        }
                        Err(e) => writeln!(writer, "{}", err_line(None, "batch", &e.to_string()))?,
                    }
                }
                Err(e) => writeln!(writer, "{}", err_line(None, "batch", &e))?,
            },
            "wait" => {
                let id = v.get("id").and_then(Value::as_f64).map(|f| f as u64);
                match id.and_then(|id| pending.remove(&id).map(|p| (id, p))) {
                    Some((id, p)) => {
                        order.retain(|&o| o != id);
                        writeln!(writer, "{}", result_line(id, &p))?;
                    }
                    None => writeln!(
                        writer,
                        "{}",
                        err_line(id, "batch", "unknown or finished id")
                    )?,
                }
            }
            "drain" => {
                let drained = order.len();
                for id in order.drain(..) {
                    if let Some(p) = pending.remove(&id) {
                        writeln!(writer, "{}", result_line(id, &p))?;
                    }
                }
                writeln!(writer, "{{\"op\":\"drained\",\"jobs\":{drained}}}")?;
            }
            "cancel" => {
                let id = v.get("id").and_then(Value::as_f64).map(|f| f as u64);
                match id.and_then(|id| pending.get(&id).map(|p| (id, p))) {
                    Some((id, p)) => {
                        p.handle.cancel();
                        writeln!(writer, "{{\"op\":\"cancelled\",\"id\":{id}}}")?;
                    }
                    None => writeln!(
                        writer,
                        "{}",
                        err_line(id, "batch", "unknown or finished id")
                    )?,
                }
            }
            "stream.open" | "stream.append" | "stream.retire" | "stream.window"
            | "stream.query" | "stream.close" => {
                let out = match op {
                    "stream.open" => streams.open(&v),
                    "stream.append" => streams.append(&v),
                    "stream.retire" => streams.retire(&v),
                    "stream.window" => streams.window(&v),
                    "stream.query" => streams.query(&v),
                    _ => streams.close(&v),
                };
                match out {
                    Ok(line) => writeln!(writer, "{line}")?,
                    Err(e) => writeln!(writer, "{}", err_line(None, "stream", &e))?,
                }
            }
            "metrics" => writeln!(writer, "{}", server.metrics().to_json())?,
            "shutdown" => {
                writeln!(writer, "{{\"op\":\"bye\"}}")?;
                break;
            }
            other => writeln!(
                writer,
                "{}",
                err_line(None, "batch", &format!("unknown op `{other}`"))
            )?,
        }
        writer.flush()?;
    }
    for (_, p) in pending.drain() {
        let _ = p.handle.wait();
    }
    streams.close_all();
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use std::io::Cursor;
    use std::path::PathBuf;

    fn csv_fixture(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "proclus-serve-proto-{name}-{}.csv",
            std::process::id()
        ));
        let mut body = String::new();
        for i in 0..240 {
            let c = (i % 2) as f32 * 25.0;
            let _ = writeln!(body, "{},{},{}", c + (i % 5) as f32 * 0.1, i % 7, c);
        }
        std::fs::write(&path, body).unwrap();
        path
    }

    fn session(server: &Server, input: &str) -> Vec<String> {
        let mut out = Vec::new();
        serve_connection(server, Cursor::new(input.to_string()), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn submit_drain_metrics_round_trip() {
        let path = csv_fixture("round");
        let server = Server::start(ServeConfig::default().with_workers(1)).expect("server starts");
        let input = format!(
            "{{\"op\":\"submit\",\"dataset\":\"{p}\",\"k\":2,\"l\":2,\"a\":10,\"b\":3,\"seed\":5}}\n\
             {{\"op\":\"submit\",\"dataset\":\"{p}\",\"k\":3,\"l\":2,\"a\":10,\"b\":3,\"seed\":5}}\n\
             {{\"op\":\"drain\"}}\n\
             {{\"op\":\"metrics\"}}\n\
             {{\"op\":\"shutdown\"}}\n",
            p = path.display()
        );
        let lines = session(&server, &input);
        assert!(lines[0].contains("\"op\":\"submitted\""), "{lines:?}");
        assert!(lines[1].contains("\"op\":\"submitted\""), "{lines:?}");
        assert!(lines[2].contains("\"ok\":true"), "{lines:?}");
        assert!(lines[3].contains("\"ok\":true"), "{lines:?}");
        assert!(lines[2].contains("\"backend\":\"cpu\""), "{lines:?}");
        assert!(lines[3].contains("\"backend\":\"cpu\""), "{lines:?}");
        assert!(lines[4].contains("\"op\":\"drained\""), "{lines:?}");
        proclus_telemetry::schema::validate_report_str(&lines[5]).unwrap();
        assert_eq!(lines[6], "{\"op\":\"bye\"}");
        // Every result line is itself valid JSON.
        for l in &lines[2..4] {
            json::parse(l).unwrap();
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_requests_get_error_lines_not_crashes() {
        let server = Server::start(ServeConfig::default().with_workers(1)).expect("server starts");
        let lines = session(
            &server,
            "not json\n\
             {\"op\":\"submit\",\"k\":2}\n\
             {\"op\":\"wait\",\"id\":99}\n\
             {\"op\":\"frobnicate\"}\n\
             {\"op\":\"submit\",\"dataset\":\"/no/file.csv\",\"k\":2,\"l\":1}\n",
        );
        assert!(lines[0].contains("bad json"), "{lines:?}");
        assert!(lines[1].contains("missing string 'dataset'"), "{lines:?}");
        assert!(lines[2].contains("unknown or finished id"), "{lines:?}");
        assert!(lines[3].contains("unknown op"), "{lines:?}");
        // l = 1 fails admission-time validation.
        assert!(lines[4].contains("invalid request"), "{lines:?}");
    }

    #[test]
    fn labels_are_included_on_request() {
        let path = csv_fixture("labels");
        let server = Server::start(ServeConfig::default().with_workers(1)).expect("server starts");
        let input = format!(
            "{{\"op\":\"submit\",\"dataset\":\"{p}\",\"k\":2,\"l\":2,\"a\":10,\"b\":3,\
             \"labels\":true}}\n{{\"op\":\"wait\",\"id\":0}}\n",
            p = path.display()
        );
        let lines = session(&server, &input);
        let result = json::parse(&lines[1]).unwrap();
        assert_eq!(result.get("labels").unwrap().as_array().unwrap().len(), 240);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn error_lines_carry_a_job_kind() {
        let server = Server::start(ServeConfig::default().with_workers(1)).expect("server starts");
        let lines = session(
            &server,
            "{\"op\":\"wait\",\"id\":99}\n\
             {\"op\":\"stream.append\",\"name\":\"ghost\",\"rows\":[[1]]}\n",
        );
        assert!(lines[0].contains("\"job_kind\":\"batch\""), "{lines:?}");
        assert!(lines[1].contains("\"job_kind\":\"stream\""), "{lines:?}");
    }

    #[test]
    fn stream_session_round_trip() {
        let server = Server::start(ServeConfig::default().with_workers(1)).expect("server starts");
        // 120 rows in two planted clusters, appended in three batches with
        // a query between each, then a window eviction and a final query.
        let mut rows = String::new();
        let batch = |lo: usize, hi: usize| {
            let mut s = String::from("[");
            for i in lo..hi {
                if i > lo {
                    s.push(',');
                }
                let c = (i % 2) as f32 * 25.0;
                let _ = write!(s, "[{},{},{}]", c + (i % 5) as f32 * 0.1, i % 7, c);
            }
            s.push(']');
            s
        };
        let _ = write!(
            rows,
            "{{\"op\":\"stream.open\",\"name\":\"live\",\"d\":3,\"k\":2,\"l\":2,\"a\":10,\
             \"b\":3,\"seed\":5}}\n\
             {{\"op\":\"stream.append\",\"name\":\"live\",\"rows\":{}}}\n\
             {{\"op\":\"stream.query\",\"name\":\"live\",\"deadline_ms\":60000}}\n\
             {{\"op\":\"stream.append\",\"name\":\"live\",\"rows\":{}}}\n\
             {{\"op\":\"stream.query\",\"name\":\"live\",\"labels\":true,\"telemetry\":true}}\n\
             {{\"op\":\"stream.query\",\"name\":\"live\"}}\n\
             {{\"op\":\"stream.window\",\"name\":\"live\",\"cap\":100}}\n\
             {{\"op\":\"stream.query\",\"name\":\"live\"}}\n\
             {{\"op\":\"stream.close\",\"name\":\"live\"}}\n",
            batch(0, 110),
            batch(110, 120),
        );
        let lines = session(&server, &rows);
        assert!(lines[0].contains("\"op\":\"stream.opened\""), "{lines:?}");
        assert!(lines[1].contains("\"n\":110"), "{lines:?}");
        assert!(lines[2].contains("\"mode\":\"full\""), "{lines:?}");
        assert!(lines[3].contains("\"n\":120"), "{lines:?}");
        // Second query after a small append runs incrementally and returns
        // labels as [pid,label] pairs plus schema-valid telemetry.
        assert!(lines[4].contains("\"mode\":\"incremental\""), "{lines:?}");
        assert!(lines[4].contains("\"labels\":[[0,"), "{lines:?}");
        let v = json::parse(&lines[4]).unwrap();
        assert_eq!(v.get("labels").unwrap().as_array().unwrap().len(), 120);
        // The telemetry report is the last field; slice it back out and
        // check it against the schema (stream.* span names included).
        let tel_at = lines[4]
            .find("\"telemetry\":")
            .expect("telemetry requested");
        let tel = &lines[4][tel_at + "\"telemetry\":".len()..lines[4].len() - 1];
        proclus_telemetry::schema::validate_report_str(tel).unwrap();
        // Clean query: no re-clustering.
        assert!(lines[5].contains("\"reclustered\":false"), "{lines:?}");
        // Window eviction dirties the dataset; the next query re-clusters.
        assert!(lines[6].contains("\"op\":\"stream.windowed\""), "{lines:?}");
        assert!(lines[7].contains("\"reclustered\":true"), "{lines:?}");
        assert!(lines[7].contains("\"n\":100"), "{lines:?}");
        assert!(lines[8].contains("\"op\":\"stream.closed\""), "{lines:?}");
        for l in &lines {
            json::parse(l).unwrap();
        }
    }

    #[test]
    fn live_datasets_stay_out_of_the_registry() {
        let server = Server::start(ServeConfig::default().with_workers(1)).expect("server starts");
        let mut input = String::from(
            "{\"op\":\"stream.open\",\"name\":\"live\",\"d\":2,\"k\":2,\"l\":2,\"a\":6,\"b\":3}\n\
             {\"op\":\"stream.append\",\"name\":\"live\",\"rows\":[",
        );
        for i in 0..80 {
            if i > 0 {
                input.push(',');
            }
            let _ = write!(input, "[{},{}]", (i % 2) * 20, i % 9);
        }
        input.push_str(
            "]}\n{\"op\":\"stream.query\",\"name\":\"live\"}\n\
             {\"op\":\"stream.close\",\"name\":\"live\"}\n",
        );
        let lines = session(&server, &input);
        assert!(lines[2].contains("\"ok\":true"), "{lines:?}");
        assert!(lines[2].contains("\"reclustered\":true"), "{lines:?}");
        assert!(lines[3].contains("\"op\":\"stream.closed\""), "{lines:?}");
        // The session owns its rows: a re-clustering query registers no
        // `stream:` entry and spends none of the registry's bytes.
        assert!(
            server.registry().is_empty(),
            "a live dataset was registered"
        );
        assert_eq!(server.registry().cached_bytes(), 0);
    }

    #[test]
    fn result_lines_echo_the_requested_backend() {
        let path = csv_fixture("backend_echo");
        let server = Server::start(ServeConfig::default().with_workers(1)).expect("server starts");
        let input = format!(
            "{{\"op\":\"submit\",\"dataset\":\"{p}\",\"k\":2,\"l\":2,\"a\":10,\"b\":3,\
             \"backend\":\"sharded\",\"devices\":2}}\n\
             {{\"op\":\"submit\",\"dataset\":\"{p}\",\"k\":2,\"l\":2,\"a\":10,\"b\":3,\
             \"backend\":\"gpu\"}}\n\
             {{\"op\":\"wait\",\"id\":0}}\n{{\"op\":\"wait\",\"id\":1}}\n",
            p = path.display()
        );
        let lines = session(&server, &input);
        assert!(lines[2].contains("\"backend\":\"sharded\""), "{lines:?}");
        assert!(lines[3].contains("\"backend\":\"gpu\""), "{lines:?}");
        for l in &lines[2..4] {
            let v = json::parse(l).unwrap();
            assert!(matches!(v.get("ok"), Some(Value::Bool(true))), "{l}");
        }
        std::fs::remove_file(path).ok();
    }
}
