//! The single-flight table of a [`crate::DatasetCache`]: at most one holder
//! per cache key, so concurrent misses on one key cause one generation
//! while the other callers wait, then hit. It holds no data, only the keys
//! in flight and the counters of [`FlightStats`].

use std::collections::HashSet;
use std::sync::{Condvar, Mutex};

/// Point-in-time counters of a cache's single-flight table, as
/// [`crate::DatasetCache::flight_stats`] reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightStats {
    /// Keys currently held in flight.
    pub in_flight: usize,
    /// Total flights begun (leaders that entered a key's critical section).
    pub begun: usize,
    /// Times a caller found its key already in flight and had to wait.
    pub waited: usize,
}

#[derive(Debug, Default)]
struct FlightState {
    in_flight: HashSet<String>,
    begun: usize,
    waited: usize,
}

/// A keyed mutual-exclusion set: at most one holder per key, waiters block.
#[derive(Debug, Default)]
pub(crate) struct SingleFlight {
    state: Mutex<FlightState>,
    released: Condvar,
}

impl SingleFlight {
    /// Enters the critical section for `key`, blocking while another holder
    /// has it. The returned guard releases the key on drop (including on
    /// panic/unwind, so a failed generation never wedges its waiters).
    pub(crate) fn begin(&self, key: &str) -> FlightGuard<'_> {
        rc4_obs::metrics::counter_add("store.singleflight.begun", 1);
        let mut state = self.state.lock().expect("single-flight lock poisoned");
        if state.in_flight.contains(key) {
            state.waited += 1;
            // A coalesced caller: the key is already in flight, so this
            // caller is about to block instead of duplicating the work.
            rc4_obs::metrics::counter_add("store.singleflight.coalesced", 1);
            let wait_start = rc4_obs::metrics::is_enabled().then(std::time::Instant::now);
            while state.in_flight.contains(key) {
                state = self
                    .released
                    .wait(state)
                    .expect("single-flight lock poisoned");
            }
            if let Some(start) = wait_start {
                rc4_obs::metrics::observe_us(
                    "store.singleflight.wait_us",
                    start.elapsed().as_micros() as u64,
                );
            }
        }
        state.in_flight.insert(key.to_string());
        state.begun += 1;
        FlightGuard {
            flights: self,
            key: key.to_string(),
        }
    }

    /// Snapshots the activity counters.
    pub(crate) fn stats(&self) -> FlightStats {
        let state = self.state.lock().expect("single-flight lock poisoned");
        FlightStats {
            in_flight: state.in_flight.len(),
            begun: state.begun,
            waited: state.waited,
        }
    }

    fn release(&self, key: &str) {
        let mut state = self.state.lock().expect("single-flight lock poisoned");
        state.in_flight.remove(key);
        drop(state);
        self.released.notify_all();
    }
}

/// Holds a key in flight; releases it (waking waiters) on drop.
#[derive(Debug)]
pub(crate) struct FlightGuard<'a> {
    flights: &'a SingleFlight,
    key: String,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.flights.release(&self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn distinct_keys_do_not_contend() {
        let flights = SingleFlight::default();
        let a = flights.begin("a");
        let b = flights.begin("b");
        assert_eq!(flights.stats().in_flight, 2);
        assert_eq!(flights.stats().waited, 0);
        drop(a);
        drop(b);
        assert_eq!(flights.stats().in_flight, 0);
    }

    #[test]
    fn same_key_blocks_until_released() {
        let flights = Arc::new(SingleFlight::default());
        let guard = flights.begin("k");
        let entered = Arc::new(AtomicUsize::new(0));

        let waiter = {
            let flights = Arc::clone(&flights);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                let _guard = flights.begin("k");
                entered.store(1, Ordering::SeqCst);
            })
        };

        for _ in 0..200 {
            if flights.stats().waited == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(flights.stats().waited, 1);
        assert_eq!(entered.load(Ordering::SeqCst), 0);

        drop(guard);
        waiter.join().expect("waiter thread panicked");
        assert_eq!(entered.load(Ordering::SeqCst), 1);
        assert_eq!(flights.stats().in_flight, 0);
        assert_eq!(flights.stats().begun, 2);
    }

    #[test]
    fn only_one_holder_runs_at_a_time() {
        let flights = Arc::new(SingleFlight::default());
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));

        let handles: Vec<_> = (0..8)
            .map(|_| {
                let flights = Arc::clone(&flights);
                let concurrent = Arc::clone(&concurrent);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    let _guard = flights.begin("shared");
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("holder thread panicked");
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1);
        assert_eq!(flights.stats().begun, 8);
    }

    #[test]
    fn panicking_holder_releases_the_key() {
        let flights = Arc::new(SingleFlight::default());
        let crasher = {
            let flights = Arc::clone(&flights);
            std::thread::spawn(move || {
                let _guard = flights.begin("k");
                panic!("generation failed");
            })
        };
        assert!(crasher.join().is_err());
        // The key must be free again: begin() returns without blocking.
        let _guard = flights.begin("k");
        assert_eq!(flights.stats().in_flight, 1);
    }
}
