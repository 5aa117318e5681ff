//! The `annoda-serve` command line, driven as a process: every refused
//! flag combination exits non-zero before any work with a message that
//! says why, and the replication set-ups it accepts — a sharded leader
//! and a follower with the leader's shard count — start, replicate,
//! answer `/healthz`, and shut down cleanly on `quit`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use annoda_serve::loadgen::read_response;
use annoda_serve::parse_position;

const BIN: &str = env!("CARGO_BIN_EXE_annoda-serve");

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("annoda-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn refused_flag_combinations_exit_before_any_work() {
    let dir = tmp_dir("refused");
    let d = dir.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        (
            &["--repl-bind", "127.0.0.1:0"],
            "--repl-bind / --follow need --data-dir",
        ),
        (
            &["--follow", "127.0.0.1:9"],
            "--repl-bind / --follow need --data-dir",
        ),
        (
            &[
                "--data-dir",
                d,
                "--repl-bind",
                "127.0.0.1:0",
                "--follow",
                "127.0.0.1:9",
            ],
            "--repl-bind and --follow are mutually exclusive",
        ),
        (
            &[
                "--data-dir",
                d,
                "--follow",
                "127.0.0.1:9",
                "--subscribe",
                "OMIM=127.0.0.1:9",
            ],
            "--subscribe needs a writable store (not --follow)",
        ),
        (
            &["--store-shards", "0"],
            "--store-shards takes a shard count in 1..=64, got 0",
        ),
        (
            &["--store-shards", "65"],
            "--store-shards takes a shard count in 1..=64, got 65",
        ),
        (
            &["--loci", "many"],
            "--loci takes a locus count, got `many`",
        ),
        (
            &["--fsync", "sometimes"],
            "--fsync takes always | batched:N | onsnapshot, got `sometimes`",
        ),
        (
            &["--subscribe", "OMIM"],
            "--subscribe takes SOURCE=HOST:PORT, got `OMIM`",
        ),
        (&["--data-dir"], "--data-dir needs a value"),
        (&["--bogus"], "unknown flag `--bogus`"),
    ];
    for (args, message) in cases {
        let out = Command::new(BIN)
            .args(*args)
            .stdin(Stdio::null())
            .output()
            .expect("run annoda-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must be refused");
        assert!(
            stderr.contains(&format!("error: {message}")),
            "{args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("generating corpus"),
            "{args:?} must be refused before any work: {stderr}"
        );
    }
    assert!(!dir.exists(), "a refused start touches no data dir");
}

#[test]
fn unsharded_data_dir_is_refused_not_shadowed() {
    let dir = tmp_dir("unsharded");
    // The single-store layout: a WAL at the directory root and no
    // shard manifest.
    drop(annoda::DurableStore::open(&dir, annoda::FsyncPolicy::OnSnapshot).unwrap());
    let out = Command::new(BIN)
        .args(["--loci", "40", "--data-dir", dir.to_str().unwrap()])
        .stdin(Stdio::null())
        .output()
        .expect("run annoda-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(
        stderr.contains("error: cannot open the store: data directory layout:")
            && stderr.contains("holds an unsharded store"),
        "{stderr}"
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(left, ["wal.log"], "the old store is left as it was");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A running `annoda-serve` process with its output collected.
struct Node {
    child: Child,
    stdin: ChildStdin,
    stdout: Arc<Mutex<String>>,
    stderr: Arc<Mutex<String>>,
}

fn collect(pipe: impl std::io::Read + Send + 'static) -> Arc<Mutex<String>> {
    let text = Arc::new(Mutex::new(String::new()));
    let sink = Arc::clone(&text);
    std::thread::spawn(move || {
        for line in BufReader::new(pipe).lines().map_while(Result::ok) {
            let mut t = sink.lock().unwrap();
            t.push_str(&line);
            t.push('\n');
        }
    });
    text
}

impl Node {
    fn start(args: &[&str]) -> Node {
        let mut child = Command::new(BIN)
            .args(["--addr", "127.0.0.1:0", "--loci", "100"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn annoda-serve");
        let stdin = child.stdin.take().unwrap();
        let stdout = collect(child.stdout.take().unwrap());
        let stderr = collect(child.stderr.take().unwrap());
        Node {
            child,
            stdin,
            stdout,
            stderr,
        }
    }

    /// The text after `prefix` on the first matching output line,
    /// waiting for the process to print it.
    fn await_line(&self, prefix: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            for text in [&self.stdout, &self.stderr] {
                if let Some(rest) = text
                    .lock()
                    .unwrap()
                    .lines()
                    .find_map(|l| l.strip_prefix(prefix))
                {
                    return rest.trim().to_string();
                }
            }
            assert!(
                Instant::now() < deadline,
                "no `{prefix}` line; stderr: {}",
                self.stderr.lock().unwrap()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn http_addr(&self) -> String {
        self.await_line("annoda-serve listening on http://")
    }

    fn request(&self, method: &str, path: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(self.http_addr()).expect("connect");
        write!(
            conn,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (status, body) = read_response(&mut BufReader::new(conn)).expect("response");
        (status, String::from_utf8(body).unwrap())
    }

    fn healthz(&self) -> String {
        let (status, body) = self.request("GET", "/healthz");
        assert_eq!(status, 200, "{body}");
        body
    }

    fn position(&self) -> Vec<(u64, u64)> {
        let body = self.healthz();
        let token = body
            .lines()
            .find_map(|l| l.strip_prefix("position: "))
            .unwrap_or_else(|| panic!("no position in {body}"));
        parse_position(token).unwrap_or_else(|| panic!("bad position in {body}"))
    }

    /// Sends `quit` and waits for a clean exit.
    fn quit(mut self) -> String {
        self.stdin.write_all(b"quit\n").unwrap();
        let status = self.child.wait().expect("wait");
        std::thread::sleep(Duration::from_millis(50)); // let the readers drain
        let stderr = self.stderr.lock().unwrap().clone();
        assert!(status.success(), "{stderr}");
        assert!(stderr.contains("drained: true"), "{stderr}");
        stderr
    }
}

#[test]
fn sharded_leader_and_follower_replicate_and_quit_cleanly() {
    let leader_dir = tmp_dir("leader");
    let follower_dir = tmp_dir("follower");
    let leader = Node::start(&[
        "--store-shards",
        "2",
        "--data-dir",
        leader_dir.to_str().unwrap(),
        "--repl-bind",
        "127.0.0.1:0",
    ]);
    let repl_addr = leader.await_line("replication leader shipping the WAL on");
    let leader_position = leader.position();
    assert_eq!(leader_position.len(), 2, "one position per store shard");
    assert!(leader.healthz().contains("role: leader"));

    let follower = Node::start(&[
        "--store-shards",
        "2",
        "--data-dir",
        follower_dir.to_str().unwrap(),
        "--follow",
        &repl_addr,
    ]);
    assert!(follower.healthz().contains("role: follower"));
    let converge = |target: &[(u64, u64)]| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while follower.position() != target {
            assert!(Instant::now() < deadline, "the follower never caught up");
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    converge(&leader_position);

    // Snapshotting every shard seals each log behind a new generation;
    // the follower re-bootstraps every shard and converges again.
    let (status, body) = leader.request("POST", "/admin/snapshot");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("objects: "), "snapshot metadata: {body}");
    let sealed = leader.position();
    assert!(sealed.iter().zip(&leader_position).all(|(s, p)| s.0 > p.0));
    converge(&sealed);

    let stderr = follower.quit();
    assert!(
        !stderr.contains("snapshot written") && !stderr.contains("no snapshot needed"),
        "a follower never snapshots: {stderr}"
    );
    let stderr = leader.quit();
    assert!(
        stderr.contains("no snapshot needed"),
        "nothing was journaled since /admin/snapshot: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
