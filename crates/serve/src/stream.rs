//! Streaming sessions for the LDJSON protocol: per-connection live
//! datasets driven by `proclus-stream`.
//!
//! A session owns named [`StreamingClusterer`]s. Mutation verbs
//! (`stream.append` / `stream.retire` / `stream.window`) are O(batch) and
//! never run the algorithm; `stream.query` re-clusters only when the
//! dataset is dirty, under a cooperative [`CancelToken`] armed by an
//! optional deadline. After every query that re-clusters, a copy of the
//! live rows is (re-)registered **pinned** in the dataset registry (the
//! epoch itself borrows the rows and copies nothing), so byte-pressure
//! eviction from concurrent batch jobs can never drop a dataset that has
//! an open streaming session; `stream.close` unpins it.
//!
//! A re-clustering `stream.result` carries the epoch's
//! [`ReclusterReport`] counts: `segmental` is `n·k` per AssignPoints call
//! and per outlier removal, as in a batch run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use gpu_sim::DeviceConfig;
use proclus::par::Executor;
use proclus::{CancelToken, Params, OUTLIER};
use proclus_stream::{ReclusterReport, StreamBackendSpec, StreamingClusterer};
use proclus_telemetry::json::{self, fmt_f64, Value};
use proclus_telemetry::{Recorder, Telemetry};

use crate::server::Server;

/// One connection's live datasets, by client-chosen name.
#[derive(Default)]
pub struct StreamSessions {
    map: HashMap<String, StreamingClusterer>,
}

fn get_usize(v: &Value, key: &str) -> Option<usize> {
    v.get(key).and_then(Value::as_f64).map(|f| f as usize)
}

fn name_of(v: &Value) -> Result<&str, String> {
    v.get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| "stream: missing string 'name'".to_string())
}

/// Registry key of a live dataset's snapshot ("stream:" namespaces it
/// away from batch `DatasetRef` keys).
fn registry_key(name: &str) -> String {
    format!("stream:{name}")
}

fn spec_for(v: &Value) -> Result<StreamBackendSpec, String> {
    let devices = get_usize(v, "devices").unwrap_or(2).max(1);
    match v.get("backend").and_then(Value::as_str).unwrap_or("cpu") {
        // The shared work-stealing pool fills RowStore batches; an optional
        // `threads` key caps a stream's parallelism (0/absent = all cores).
        "cpu" => Ok(StreamBackendSpec::Cpu {
            exec: match get_usize(v, "threads").unwrap_or(0) {
                0 => Executor::all_cores(),
                1 => Executor::Sequential,
                t => Executor::Parallel { threads: t },
            },
        }),
        "gpu" => Ok(StreamBackendSpec::gpu(DeviceConfig::gtx_1660_ti())),
        "sharded" => Ok(StreamBackendSpec::Sharded {
            config: DeviceConfig::gtx_1660_ti(),
            devices,
        }),
        other => Err(format!("stream.open: unknown backend `{other}`")),
    }
}

fn pid_list(pids: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, p) in pids.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{p}");
    }
    s.push(']');
    s
}

impl StreamSessions {
    /// True when no live dataset is open.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Unpins every live dataset (connection teardown).
    pub fn close_all(&mut self, server: &Server) {
        for name in self.map.keys() {
            server.registry().unpin(&registry_key(name));
        }
        self.map.clear();
    }

    /// `stream.open`: creates a named live dataset.
    pub(crate) fn open(&mut self, server: &Server, v: &Value) -> Result<String, String> {
        let name = name_of(v)?;
        if self.map.contains_key(name) {
            return Err(format!("stream.open: `{name}` is already open"));
        }
        let d = get_usize(v, "d").ok_or("stream.open: missing numeric 'd'")?;
        let k = get_usize(v, "k").ok_or("stream.open: missing numeric 'k'")?;
        let l = get_usize(v, "l").ok_or("stream.open: missing numeric 'l'")?;
        let mut b = Params::builder(k, l);
        if let Some(a) = get_usize(v, "a") {
            b = b.a(a);
        }
        if let Some(bb) = get_usize(v, "b") {
            b = b.b(bb);
        }
        if let Some(seed) = v.get("seed").and_then(Value::as_f64) {
            b = b.seed(seed as u64);
        }
        let params = b.build().map_err(|e| e.to_string())?;
        let spec = spec_for(v)?;
        let backend = spec.name();
        let mut c = StreamingClusterer::new(d, params, spec).map_err(|e| e.to_string())?;
        if let Some(cap) = get_usize(v, "window") {
            c.set_window(Some(cap)).map_err(|e| e.to_string())?;
        }
        self.map.insert(name.to_string(), c);
        let _ = server; // registration happens at first query (empty sets have no snapshot)
        Ok(format!(
            "{{\"op\":\"stream.opened\",\"name\":\"{}\",\"backend\":\"{backend}\"}}",
            json::escape(name)
        ))
    }

    /// `stream.append`: appends `rows` (array of number arrays).
    pub(crate) fn append(&mut self, v: &Value) -> Result<String, String> {
        let name = name_of(v)?;
        let c = self
            .map
            .get_mut(name)
            .ok_or_else(|| format!("stream.append: `{name}` is not open"))?;
        let rows = v
            .get("rows")
            .and_then(Value::as_array)
            .ok_or("stream.append: missing array 'rows'")?;
        let mut pids = Vec::with_capacity(rows.len());
        let mut evicted = Vec::new();
        for row in rows {
            let row: Vec<f32> = row
                .as_array()
                .ok_or("stream.append: each row must be an array")?
                .iter()
                .map(|x| x.as_f64().map(|f| f as f32))
                .collect::<Option<_>>()
                .ok_or("stream.append: rows must be numeric")?;
            let (pid, ev) = c.append(&row).map_err(|e| e.to_string())?;
            pids.push(pid);
            evicted.extend(ev);
        }
        Ok(format!(
            "{{\"op\":\"stream.appended\",\"name\":\"{}\",\"pids\":{},\"evicted\":{},\"n\":{}}}",
            json::escape(name),
            pid_list(&pids),
            pid_list(&evicted),
            c.n()
        ))
    }

    /// `stream.retire`: retires the listed pids.
    pub(crate) fn retire(&mut self, v: &Value) -> Result<String, String> {
        let name = name_of(v)?;
        let c = self
            .map
            .get_mut(name)
            .ok_or_else(|| format!("stream.retire: `{name}` is not open"))?;
        let pids = v
            .get("pids")
            .and_then(Value::as_array)
            .ok_or("stream.retire: missing array 'pids'")?;
        let mut retired = Vec::with_capacity(pids.len());
        for p in pids {
            let pid = p.as_f64().ok_or("stream.retire: pids must be numeric")? as u64;
            c.retire(pid).map_err(|e| e.to_string())?;
            retired.push(pid);
        }
        Ok(format!(
            "{{\"op\":\"stream.retired\",\"name\":\"{}\",\"pids\":{},\"n\":{}}}",
            json::escape(name),
            pid_list(&retired),
            c.n()
        ))
    }

    /// `stream.window`: sets (number) or clears (null/absent `cap`) the
    /// sliding window, evicting the oldest points down to it.
    pub(crate) fn window(&mut self, v: &Value) -> Result<String, String> {
        let name = name_of(v)?;
        let c = self
            .map
            .get_mut(name)
            .ok_or_else(|| format!("stream.window: `{name}` is not open"))?;
        let cap = get_usize(v, "cap");
        let evicted = c.set_window(cap).map_err(|e| e.to_string())?;
        Ok(format!(
            "{{\"op\":\"stream.windowed\",\"name\":\"{}\",\"evicted\":{},\"n\":{}}}",
            json::escape(name),
            pid_list(&evicted),
            c.n()
        ))
    }

    /// `stream.query`: re-clusters if the dataset is dirty (under an
    /// optional `deadline_ms` cancellation watchdog and optional
    /// telemetry), refreshes the pinned registry snapshot, and reports the
    /// state. `"labels":true` adds `[pid,label]` pairs.
    pub(crate) fn query(&mut self, server: &Server, v: &Value) -> Result<String, String> {
        let name = name_of(v)?;
        let c = self
            .map
            .get_mut(name)
            .ok_or_else(|| format!("stream.query: `{name}` is not open"))?;
        let want_labels = matches!(v.get("labels"), Some(Value::Bool(true)));
        let want_tel = matches!(v.get("telemetry"), Some(Value::Bool(true)));
        let deadline = v
            .get("deadline_ms")
            .and_then(Value::as_f64)
            .map(|ms| Duration::from_millis(ms as u64));

        let mut report: Option<ReclusterReport> = None;
        let mut tel_json: Option<String> = None;
        if c.is_dirty() || c.state().is_none() {
            let cancel = CancelToken::default();
            // Deadline watchdog: cancels cooperatively if the query is
            // still running when the deadline lapses. The sender half is
            // dropped when the query finishes, releasing the watchdog.
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let watchdog = deadline.map(|dl| {
                let cancel = cancel.clone();
                // Deadline watchdog parked on a channel timeout, not compute.
                // lint:allow(no_raw_scope) -- watchdog thread, not data-parallel fan-out
                std::thread::spawn(move || {
                    if done_rx.recv_timeout(dl).is_err() {
                        cancel.cancel();
                    }
                })
            });
            let tel = want_tel.then(Telemetry::new);
            let rec: &dyn Recorder = match &tel {
                Some(t) => t,
                None => &proclus_telemetry::NullRecorder,
            };
            let out = c.recluster(rec, &cancel);
            drop(done_tx);
            if let Some(h) = watchdog {
                let _ = h.join();
            }
            let r = out.map_err(|e| e.to_string())?;
            tel_json = tel.map(|t| t.finish().to_json());
            report = Some(r);
            let snap = c.dataset().snapshot().map_err(|e| e.to_string())?;
            server
                .registry()
                .put_pinned(&registry_key(name), Arc::new(snap));
        }

        let state = c
            .state()
            .ok_or_else(|| format!("stream.query: `{name}` has no state yet"))?;
        let outliers = state.labels.values().filter(|&&l| l == OUTLIER).count();
        let mut line = format!(
            "{{\"op\":\"stream.result\",\"name\":\"{}\",\"ok\":true,\"n\":{},\"k\":{},\
             \"cost\":{},\"refined_cost\":{},\"outliers\":{outliers}",
            json::escape(name),
            c.n(),
            state.medoid_pids.len(),
            fmt_f64(state.cost),
            fmt_f64(state.refined_cost),
        );
        match &report {
            Some(r) => {
                let _ = write!(
                    line,
                    ",\"reclustered\":true,\"mode\":\"{}\",\"distances\":{},\"segmental\":{},\
                     \"dist_cache_hits\":{},\"dist_cache_misses\":{},\"iterations\":{}",
                    r.mode.as_str(),
                    r.distances,
                    r.segmental,
                    r.dist_cache_hits,
                    r.dist_cache_misses,
                    r.iterations
                );
                if let Some(us) = r.sim_us {
                    let _ = write!(line, ",\"sim_us\":{}", fmt_f64(us));
                }
            }
            None => line.push_str(",\"reclustered\":false"),
        }
        if want_labels {
            let mut pairs: Vec<(u64, i32)> = state.labels.iter().map(|(&p, &l)| (p, l)).collect();
            pairs.sort_unstable();
            line.push_str(",\"labels\":[");
            for (i, (p, l)) in pairs.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "[{p},{l}]");
            }
            line.push(']');
        }
        if let Some(t) = tel_json {
            line.push_str(",\"telemetry\":");
            line.push_str(&t);
        }
        line.push('}');
        Ok(line)
    }

    /// `stream.close`: unpins the registry snapshot and drops the session.
    pub(crate) fn close(&mut self, server: &Server, v: &Value) -> Result<String, String> {
        let name = name_of(v)?;
        if self.map.remove(name).is_none() {
            return Err(format!("stream.close: `{name}` is not open"));
        }
        server.registry().unpin(&registry_key(name));
        Ok(format!(
            "{{\"op\":\"stream.closed\",\"name\":\"{}\"}}",
            json::escape(name)
        ))
    }
}
