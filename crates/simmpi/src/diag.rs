//! Shared deadlock-diagnostic wording.
//!
//! Both execution planes can deadlock the same way — a receive whose
//! matching send never arrives — and both report it loudly: the timed
//! machine panics at end of simulation (`Machine::run`), the native
//! fabric's watchdog returns a structured `FabricDiagnostic`
//! (`gpaw_fd::fault`). The phrases live here so the two reports
//! read identically and an operator can grep one vocabulary across both
//! planes. The timed machine's other end-of-run failure — a message that
//! arrived and was never received — names its receive the same way.

/// The pending operation of a blocked receive: `recv(src=2, tag=77)`.
pub fn pending_recv(src: usize, tag: u64) -> String {
    format!("recv(src={src}, tag={tag})")
}

/// The report header: `deadlock: 3 threads stuck`.
pub fn stuck_header(n: usize, what: &str) -> String {
    format!("deadlock: {n} {what} stuck")
}

/// The header of a run that finished with messages nobody received:
/// `unreceived: 2 messages delivered, never matched`.
pub fn unreceived_header(n: usize) -> String {
    format!("unreceived: {n} messages delivered, never matched")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phrases_are_stable() {
        assert_eq!(pending_recv(2, 77), "recv(src=2, tag=77)");
        assert_eq!(stuck_header(3, "threads"), "deadlock: 3 threads stuck");
        assert_eq!(stuck_header(1, "receives"), "deadlock: 1 receives stuck");
        assert_eq!(
            unreceived_header(2),
            "unreceived: 2 messages delivered, never matched"
        );
    }
}
