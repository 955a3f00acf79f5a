//! An idle server costs nothing and stops at once. Its own test binary:
//! it reads the CPU time of every `jfs-io-*` thread in the process, so no
//! other test's server may run beside it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use jiffy::JiffyConfig;
use jiffy_server::{serve, Client, Map, ServerConfig};
use jiffy_shard::Router;

/// CPU nanoseconds used so far by this process's threads whose name
/// starts with `prefix`, from `schedstat` (nanoseconds, not ticks).
fn thread_cpu_ns(prefix: &str) -> u64 {
    let mut ns = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let Ok(name) = std::fs::read_to_string(task.path().join("comm")) else { continue };
        if !name.starts_with(prefix) {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else { continue };
        ns += stat.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    }
    ns
}

/// Two idle connections: over half a second the io threads may use less
/// than 2 ms of CPU (they sleep in `epoll_wait`, not in a poll loop), and
/// `shutdown` returns within 50 ms (it rings them awake rather than
/// waiting out their backstop).
#[test]
fn idle_server_is_idle_and_shuts_down_at_once() {
    let map = Arc::new(Map::with_router(Router::range_uniform(2, 1 << 16), JiffyConfig::default()));
    let server = serve(map, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let mut clients: Vec<Client> =
        (0..2).map(|_| Client::connect(server.addr()).unwrap()).collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.put(i as u64, 1).unwrap();
        c.stats().unwrap();
    }
    // Let the io threads finish their last sweep and fall asleep.
    std::thread::sleep(Duration::from_millis(50));

    let before = thread_cpu_ns("jfs-io");
    std::thread::sleep(Duration::from_millis(500));
    let used = thread_cpu_ns("jfs-io") - before;
    assert!(used < 2_000_000, "idle io threads used {:.2} ms of CPU in 500 ms", used as f64 / 1e6);

    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(50), "shutdown of an idle server took {took:?}");
    drop(clients);
}
