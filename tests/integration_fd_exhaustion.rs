//! The front end out of file descriptors: a real `si_serve` started with
//! `RLIMIT_NOFILE` = 32 while 64 clients hold idle connections. Once the
//! descriptors run out, `accept` fails with `EMFILE` but the backlog keeps
//! the listener readable. The event loop must idle through that instead
//! of spinning on the listener, and answer again once clients leave.
#![cfg(target_os = "linux")]

use std::io::BufRead;
use std::net::{SocketAddr, TcpStream};
use std::os::raw::{c_int, c_long, c_ulong};
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use si_service::http::HttpClient;

#[repr(C)]
struct RLimit {
    cur: c_ulong,
    max: c_ulong,
}

const RLIMIT_NOFILE: c_int = 7;
const SC_CLK_TCK: c_int = 2;

extern "C" {
    fn setrlimit(resource: c_int, limit: *const RLimit) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// Kills the child on drop, so a failed assertion leaves no server behind.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `si_serve` on an ephemeral port with at most `max_fds` open
/// descriptors and returns it with the address from its banner.
fn serve_with_fd_limit(max_fds: c_ulong) -> (Serve, SocketAddr) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_si_serve"));
    command
        .args(["--addr", "127.0.0.1:0", "--workers", "1", "--queue", "4"])
        .stdout(Stdio::piped());
    // SAFETY: the hook runs in the forked child before `exec` and only
    // calls `setrlimit`, which is async-signal-safe, on a stack value.
    unsafe {
        command.pre_exec(move || {
            let limit = RLimit {
                cur: max_fds,
                max: max_fds,
            };
            if setrlimit(RLIMIT_NOFILE, &limit) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
    let mut child = Serve(command.spawn().expect("spawn si_serve"));
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut banner = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .expect("banner address");
    (child, addr)
}

/// User plus system CPU time the process has used, in seconds.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let after_comm = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    // SAFETY: sysconf only reads a configuration value.
    let per_second = unsafe { sysconf(SC_CLK_TCK) };
    ticks as f64 / per_second as f64
}

#[test]
fn exhausted_descriptors_idle_the_loop_instead_of_spinning() {
    let (serve, addr) = serve_with_fd_limit(32);
    let pid = serve.0.id();
    let held: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(addr).expect("connect into the backlog"))
        .collect();
    // Let the loop accept until its descriptors run out.
    std::thread::sleep(Duration::from_millis(300));
    let before = cpu_seconds(pid);
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_seconds(pid) - before;
    assert!(
        spent < 0.2,
        "si_serve used {spent:.2} s of CPU in 1 s with its descriptors exhausted"
    );

    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let answer = HttpClient::new(addr)
            .timeout(Duration::from_secs(2))
            .request_text("GET", "/healthz", None);
        if matches!(answer, Ok((200, _))) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "/healthz never answered 200 after the clients left: {answer:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
