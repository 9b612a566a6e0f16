//! Reads the served reply bytes without a JSON parse: classifies each
//! line as a report or an error and tallies deadline misses and task
//! releases per report, which is all the end-to-end quality metric
//! needs. The correctness gate checks the tallies against
//! `SimReport::overall_dmr` on parsed reports.

/// What one request's reply held.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Reply {
    /// Report lines (`{"id":N,"index":I,"report":…}`).
    pub reports: u64,
    /// Error lines: request-level, per-scenario or deadline.
    pub errors: u64,
    /// Sum over report lines of each report's deadline-miss rate.
    pub dmr_sum: f64,
}

const MISSES: &[u8] = b"\"misses\":";
const TASKS: &[u8] = b",\"tasks\":";

/// Scans one request's reply.
pub fn reply(bytes: &[u8]) -> Reply {
    let mut out = Reply::default();
    for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        match kind(line) {
            Some(Kind::Report) => {
                out.reports += 1;
                let (misses, tasks) = tally(line);
                if tasks > 0 {
                    out.dmr_sum += misses as f64 / tasks as f64;
                }
            }
            _ => out.errors += 1,
        }
    }
    out
}

enum Kind {
    Report,
    Error,
}

/// Which key follows the line's `id`/`index` prefix.
fn kind(line: &[u8]) -> Option<Kind> {
    let head = &line[..line.len().min(64)];
    let report = find(head, b"\"report\":");
    let error = find(head, b"\"error\":");
    match (report, error) {
        (Some(r), Some(e)) if e < r => Some(Kind::Error),
        (Some(_), _) => Some(Kind::Report),
        (None, Some(_)) => Some(Kind::Error),
        (None, None) => None,
    }
}

/// Total misses and task releases over a report line's period records.
fn tally(line: &[u8]) -> (u64, u64) {
    let (mut misses, mut tasks) = (0, 0);
    let mut rest = line;
    while let Some(at) = find(rest, MISSES) {
        rest = &rest[at + MISSES.len()..];
        let (m, used) = number(rest);
        misses += m;
        rest = &rest[used..];
        if rest.starts_with(TASKS) {
            rest = &rest[TASKS.len()..];
            let (n, used) = number(rest);
            tasks += n;
            rest = &rest[used..];
        }
    }
    (misses, tasks)
}

fn number(s: &[u8]) -> (u64, usize) {
    let digits = s.iter().take_while(|b| b.is_ascii_digit()).count();
    let value = s[..digits]
        .iter()
        .fold(0u64, |v, d| v * 10 + u64::from(d - b'0'));
    (value, digits)
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let first = needle[0];
    let mut from = 0;
    while let Some(i) = hay[from..].iter().position(|&b| b == first) {
        let at = from + i;
        if hay[at..].starts_with(needle) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_lines_and_tallies_misses() {
        let bytes = b"{\"id\":1,\"index\":0,\"report\":{\"periods\":[{\"misses\":1,\"tasks\":4},\
                      {\"misses\":2,\"tasks\":4}]}}\n{\"id\":1,\"error\":\"deadline\"}\n\
                      {\"error\":\"bad request\"}\n";
        let r = reply(bytes);
        assert_eq!(r.reports, 1);
        assert_eq!(r.errors, 2);
        assert!((r.dmr_sum - 3.0 / 8.0).abs() < 1e-15);
    }
}
