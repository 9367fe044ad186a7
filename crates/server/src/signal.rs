//! SIGINT/SIGTERM → [`CancelToken`], with no dependency beyond libc's
//! `signal(2)` (already linked by std).
//!
//! The handler only calls [`CancelToken::cancel`], which is
//! async-signal-safe: an atomic swap plus, when a server registered a wake
//! socket on the token, one `write(2)` of one byte. All draining —
//! finishing in-flight work, journaling, flushing telemetry sinks — happens
//! on normal threads: executors check the token at job-claim boundaries,
//! and a served process's drain thread blocks reading that wake socket.
//! After the first signal the default disposition is restored, so a second
//! Ctrl-C kills a wedged process the traditional way.

use std::sync::{Arc, OnceLock};

use acc_validation::CancelToken;

static TOKEN: OnceLock<Arc<CancelToken>> = OnceLock::new();

#[cfg(unix)]
mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    pub const SIG_DFL: usize = 0;

    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(signum: i32) {
    if let Some(token) = TOKEN.get() {
        token.cancel();
    }
    // One shot: restore the default disposition so a second signal
    // terminates immediately instead of being swallowed.
    unsafe {
        sys::signal(signum, sys::SIG_DFL);
    }
}

#[cfg(unix)]
fn handler_addr() -> usize {
    on_signal as *const () as usize
}

/// Install `token` as the process-wide drain token and register it for
/// SIGINT and SIGTERM. Idempotent; the first installed token wins (later
/// calls return `false` without re-registering a different token).
pub fn install(token: Arc<CancelToken>) -> bool {
    let installed = TOKEN.set(token).is_ok();
    #[cfg(unix)]
    if installed {
        unsafe {
            sys::signal(sys::SIGINT, handler_addr());
            sys::signal(sys::SIGTERM, handler_addr());
        }
    }
    installed
}

/// The installed drain token, if any.
pub fn installed_token() -> Option<Arc<CancelToken>> {
    TOKEN.get().cloned()
}

/// Install a fresh token, or return the one already installed — the
/// one-shot CLI path, where whichever command runs first wins.
pub fn install_default() -> Arc<CancelToken> {
    let token = CancelToken::arc();
    if install(Arc::clone(&token)) {
        token
    } else {
        installed_token().expect("install returned false, so the token is set")
    }
}
