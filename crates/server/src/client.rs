//! A minimal blocking client for the line protocol — used by the
//! integration tests and the repository benchmark (`perfbench`); also a
//! reference implementation for external clients.

use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

use traclus_json::JsonValue;

use crate::protocol::Request;
use crate::write_line;

/// One connection speaking the line protocol synchronously: every
/// [`Self::request`] writes one line and blocks for the one-line answer.
///
/// Each request leaves in one write of the line with its newline, on a
/// socket with Nagle's algorithm off. Sent apart, the newline would wait
/// for the daemon's delayed ACK (≈40 ms) before the daemon could answer.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    /// Sends a typed request and returns the parsed response object.
    pub fn request(&mut self, request: &Request) -> std::io::Result<JsonValue> {
        self.send_raw(&request.to_line())
    }

    /// Sends one raw line verbatim (useful for probing the server's
    /// malformed-input handling) and returns the parsed response.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<JsonValue> {
        write_line(&mut self.writer, line.to_owned())?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        JsonValue::parse(response.trim_end()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable response {response:?}: {e}"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::CountingWriter;

    #[test]
    fn large_request_reaches_the_socket_in_one_write() {
        let line = format!(r#"{{"op": "stats", "pad": "{}"}}"#, "x".repeat(10 * 1024));
        let mut writer = CountingWriter::default();
        write_line(&mut writer, line.clone()).unwrap();
        assert_eq!(writer.writes, 1, "request split across writes");
        assert_eq!(writer.bytes, format!("{line}\n").into_bytes());
    }
}
