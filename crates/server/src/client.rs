//! A minimal blocking client for the line-delimited JSON protocol.
//!
//! [`Client`] wraps one TCP connection: [`Client::request`] writes one
//! frame and reads one response line, in order.  It is deliberately thin —
//! the protocol is plain enough to speak with `nc` — but having a typed
//! client keeps the integration tests and the example honest about what a
//! third-party implementation needs: a socket, a line buffer, and a JSON
//! parser.

use crate::json::Json;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One blocking connection to an `ajd-server`.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let (reader, writer) = split_stream(TcpStream::connect(addr)?)?;
        Ok(Client { reader, writer })
    }

    /// Sends one request frame and blocks for its response frame.
    ///
    /// The server answers every line with exactly one line (even protocol
    /// errors come back as error frames), so request/response pairing is
    /// positional.
    pub fn request(&mut self, frame: &Json) -> io::Result<Json> {
        self.request_line(&frame.to_string())
    }

    /// Sends one raw request line (no trailing newline) and blocks for the
    /// response frame.  Useful for testing how the server answers
    /// deliberately malformed lines.
    pub fn request_line(&mut self, line: &str) -> io::Result<Json> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(response.trim_end()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server sent invalid JSON: {e}"),
            )
        })
    }
}

/// Splits a connection into a buffered reader and writer, with Nagle's
/// algorithm disabled.
///
/// Both ends of the protocol use this.  A request line is written as the
/// line and its newline; with Nagle on, a long line's last segment waits
/// for the peer's delayed ACK (tens of milliseconds on loopback), which
/// dwarfs the request's own cost.  Disabling it is best effort: a socket
/// that refuses the option still carries the protocol correctly.
pub(crate) fn split_stream(
    stream: TcpStream,
) -> io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    let _ = stream.set_nodelay(true);
    let read_half = stream.try_clone()?;
    Ok((BufReader::new(read_half), BufWriter::new(stream)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// The client's socket and an accepted server-side socket (split the
    /// way `Server::serve` splits every connection) both disable Nagle.
    #[test]
    fn both_ends_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.writer.get_ref().nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
        let (accepted, _) = listener.accept().unwrap();
        let (reader, writer) = split_stream(accepted).unwrap();
        assert!(writer.get_ref().nodelay().unwrap());
        assert!(reader.get_ref().nodelay().unwrap());
    }
}
