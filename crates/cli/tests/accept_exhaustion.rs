//! A daemon out of file descriptors must idle, not spin. With clients
//! waiting in the listen backlog, the listener stays readable while
//! every `accept` fails with `EMFILE`; retrying at once burns a core.
//! Each core is booted through the real console under `ulimit -n 64`,
//! 120 clients connect past the limit, and the daemon's CPU time over
//! 2 s of that is read from `/proc`. Once the clients leave, a fresh
//! one must still be served.
#![cfg(target_os = "linux")]

use scaddar_net::{decode_frame, Frame, FrameError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const CLIENTS: usize = 120;
const WINDOW: Duration = Duration::from_secs(2);
const CPU_CEILING_S: f64 = 0.25;

/// The daemon process; killed if a test fails before it exits.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Held open so the daemon's closing line has somewhere to go.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn boot(mode: &str) -> Daemon {
        let bin = env!("CARGO_BIN_EXE_scaddar-console");
        let mut child = Command::new("/bin/sh")
            .arg("-c")
            .arg(format!(
                "ulimit -n 64; exec '{bin}' serve --addr 127.0.0.1:0 --blocks 1000 {mode}"
            ))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn the console");
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        stdout
            .read_line(&mut banner)
            .expect("read the serving banner");
        // "scaddard serving N blocks on D disks at HOST:PORT — ctrl-d to stop"
        let addr = banner
            .split(" at ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
            .to_string();
        Daemon {
            child,
            stdin,
            _stdout: stdout,
            addr,
        }
    }

    /// User plus system CPU time of the daemon so far, in seconds.
    fn cpu_seconds(&self) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap();
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15, in USER_HZ
        // (100 per second) ticks.
        let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
            .split_whitespace()
            .collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        ticks as f64 / 100.0
    }

    fn ping(&self) -> Result<Frame, String> {
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .map_err(|e| e.to_string())?;
        stream
            .write_all(&Frame::Ping.to_bytes())
            .map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        let mut chunk = [0u8; 256];
        loop {
            match decode_frame(&buf) {
                Ok((frame, _)) => return Ok(frame),
                Err(FrameError::Incomplete { .. }) => {}
                Err(e) => return Err(e.to_string()),
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Err("closed".into()),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Closing stdin drains the daemon; kill it if that hangs.
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn idles_when_descriptors_run_out(mode: &str) {
    let daemon = Daemon::boot(mode);
    let clients: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| TcpStream::connect(&daemon.addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let before = daemon.cpu_seconds();
    std::thread::sleep(WINDOW);
    let used = daemon.cpu_seconds() - before;
    assert!(
        used < CPU_CEILING_S,
        "{mode}: daemon used {used:.2} s of CPU in {WINDOW:?} with {CLIENTS} clients waiting"
    );
    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(10);
    let answer = loop {
        match daemon.ping() {
            Ok(frame) => break frame,
            Err(e) if Instant::now() >= deadline => panic!("{mode}: no answer after close: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    assert!(matches!(answer, Frame::Pong { .. }), "{mode}: {answer:?}");
}

#[test]
fn event_loop_idles_when_descriptors_run_out() {
    idles_when_descriptors_run_out("--event-loop");
}

#[test]
fn threaded_core_idles_when_descriptors_run_out() {
    idles_when_descriptors_run_out("--threaded");
}
