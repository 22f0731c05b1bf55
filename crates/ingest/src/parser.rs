//! Line-level parsing of the TSV log format.

use segugio_model::{Day, DomainName, Ipv4, ParseDomainError};

use crate::error::{ParseLogError, ParseLogErrorKind};

/// One parsed log line: a client's query and the answer's resolved IPs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Day index of the observation.
    pub day: Day,
    /// Stable client identifier (opaque).
    pub client: String,
    /// The queried domain.
    pub qname: DomainName,
    /// Resolved addresses from the authoritative answer.
    pub ips: Vec<Ipv4>,
}

impl LogRecord {
    /// Parses one log line (`line_no` is used in error messages only).
    ///
    /// # Errors
    ///
    /// Returns [`ParseLogError`] when the line has missing fields, a bad
    /// day index, an empty client id, an invalid domain, or an invalid IP.
    pub fn parse(line: &str, line_no: u64) -> Result<Self, ParseLogError> {
        let mut ips = Vec::new();
        let fields = parse_fields(line, line_no, DomainName::parse, &mut ips)?;
        Ok(LogRecord {
            day: fields.day,
            client: fields.client.to_owned(),
            qname: fields.qname,
            ips,
        })
    }
}

/// The fields of one log line, borrowed from it; the qname is whatever the
/// caller's resolver made of the trimmed qname text.
pub(crate) struct LineFields<'a, Q> {
    pub(crate) day: Day,
    pub(crate) client: &'a str,
    pub(crate) qname: Q,
}

/// The log-line grammar, shared by [`LogRecord::parse`] and the collector's
/// reader. The trimmed qname goes through `resolve_qname` (which may look
/// it up before validating it), and the resolved addresses replace the
/// contents of `ips`, so a reader that reuses `ips` allocates nothing per
/// line.
///
/// Errors follow field order: day, client, qname, ips field, IP.
pub(crate) fn parse_fields<'a, Q>(
    line: &'a str,
    line_no: u64,
    resolve_qname: impl FnOnce(&str) -> Result<Q, ParseDomainError>,
    ips: &mut Vec<Ipv4>,
) -> Result<LineFields<'a, Q>, ParseLogError> {
    let mut fields = split_ascii(line, b'\t');
    let day = fields
        .next()
        .ok_or_else(|| ParseLogError::new(line_no, ParseLogErrorKind::MissingField("day")))?;
    let day = day
        .trim()
        .parse::<u32>()
        // segugio-lint: allow(H4, error path: a bad day ends a strict read)
        .map_err(|_| ParseLogError::new(line_no, ParseLogErrorKind::BadDay(day.to_owned())))?;
    let client = fields
        .next()
        .ok_or_else(|| ParseLogError::new(line_no, ParseLogErrorKind::MissingField("client")))?
        .trim();
    if client.is_empty() {
        return Err(ParseLogError::new(line_no, ParseLogErrorKind::EmptyClient));
    }
    let qname = fields
        .next()
        .ok_or_else(|| ParseLogError::new(line_no, ParseLogErrorKind::MissingField("qname")))?;
    let qname = resolve_qname(qname.trim())
        .map_err(|e| ParseLogError::new(line_no, ParseLogErrorKind::BadDomain(e)))?;
    let ips_field = fields
        .next()
        .ok_or_else(|| ParseLogError::new(line_no, ParseLogErrorKind::MissingField("ips")))?;
    ips.clear();
    for part in split_ascii(ips_field.trim(), b',') {
        if part.is_empty() {
            continue;
        }
        ips.push(parse_ip(part, line_no)?);
    }
    Ok(LineFields {
        day: Day(day),
        client,
        qname,
    })
}

fn parse_ip(s: &str, line_no: u64) -> Result<Ipv4, ParseLogError> {
    // segugio-lint: allow(H4, error path: a bad IP ends a strict read)
    let bad = || ParseLogError::new(line_no, ParseLogErrorKind::BadIp(s.to_owned()));
    let mut octets = [0u8; 4];
    let mut parts = split_ascii(s.trim(), b'.');
    for octet in &mut octets {
        let p = parts.next().ok_or_else(bad)?;
        *octet = p.parse::<u8>().map_err(|_| bad())?;
    }
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(Ipv4::from(octets))
}

/// `str::split` on an ASCII separator. Cutting at an ASCII byte keeps
/// both sides valid UTF-8, and on the short fields of a log line a plain
/// byte scan is much cheaper than the general `char` pattern search.
fn split_ascii(s: &str, sep: u8) -> SplitAscii<'_> {
    debug_assert!(sep.is_ascii());
    SplitAscii { rest: Some(s), sep }
}

struct SplitAscii<'a> {
    rest: Option<&'a str>,
    sep: u8,
}

impl<'a> Iterator for SplitAscii<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest?;
        match rest.bytes().position(|b| b == self.sep) {
            Some(at) => {
                self.rest = rest.get(at + 1..);
                rest.get(..at)
            }
            None => {
                self.rest = None;
                Some(rest)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseLogErrorKind;

    #[test]
    fn parses_a_full_line() {
        let r = LogRecord::parse("3\thost-1\tWWW.Example.COM\t1.2.3.4,5.6.7.8", 1).unwrap();
        assert_eq!(r.day, Day(3));
        assert_eq!(r.client, "host-1");
        assert_eq!(r.qname.as_str(), "www.example.com");
        assert_eq!(
            r.ips,
            vec![Ipv4::from_octets(1, 2, 3, 4), Ipv4::from_octets(5, 6, 7, 8)]
        );
    }

    #[test]
    fn allows_empty_ip_list() {
        let r = LogRecord::parse("0\tc\texample.com\t", 1).unwrap();
        assert!(r.ips.is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            LogRecord::parse("x\tc\texample.com\t1.2.3.4", 9)
                .unwrap_err()
                .kind(),
            ParseLogErrorKind::BadDay(_)
        ));
        assert!(matches!(
            LogRecord::parse("1\t\texample.com\t1.2.3.4", 9)
                .unwrap_err()
                .kind(),
            ParseLogErrorKind::EmptyClient
        ));
        assert!(matches!(
            LogRecord::parse("1\tc\tnot a domain\t1.2.3.4", 9)
                .unwrap_err()
                .kind(),
            ParseLogErrorKind::BadDomain(_)
        ));
        assert!(matches!(
            LogRecord::parse("1\tc\texample.com\t999.1.1.1", 9)
                .unwrap_err()
                .kind(),
            ParseLogErrorKind::BadIp(_)
        ));
        assert!(matches!(
            LogRecord::parse("1\tc\texample.com\t1.2.3.4.5", 9)
                .unwrap_err()
                .kind(),
            ParseLogErrorKind::BadIp(_)
        ));
        let err = LogRecord::parse("1\tc", 9).unwrap_err();
        assert_eq!(err.line(), 9);
        assert!(matches!(
            err.kind(),
            ParseLogErrorKind::MissingField("qname")
        ));
    }

    #[test]
    fn split_ascii_matches_str_split() {
        for s in ["", "\t", "a", "a\tb", "\ta\t\tb\t", "é\tü\t", "1.2..3."] {
            for sep in [b'\t', b'.'] {
                let want: Vec<&str> = s.split(char::from(sep)).collect();
                assert_eq!(split_ascii(s, sep).collect::<Vec<_>>(), want, "{s:?}");
            }
        }
    }

    #[test]
    fn error_display_mentions_line() {
        let err = LogRecord::parse("bad", 42).unwrap_err();
        assert!(err.to_string().contains("line 42"));
    }
}
