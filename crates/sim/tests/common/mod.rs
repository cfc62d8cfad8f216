//! Helpers shared by the engine's integration tests (a copy of the unit
//! tests' crate-private `test_util`, which integration tests cannot reach).

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How long a run under [`within_deadline`] may take. Each takes
/// milliseconds; the margin covers a loaded machine with every test thread
/// pinned to one CPU.
const DEADLINE: Duration = Duration::from_secs(30);

/// Run `f` on a thread of its own and return what it returns, or fail the
/// calling test, naming `what`, if it has not returned within
/// [`DEADLINE`]. A run that misses a wake waits forever; this turns that
/// hang into a failure (the stuck thread is left behind).
pub fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("{what} still running after {DEADLINE:?}"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}
