//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection, transparent redial when the server closes the
//! connection (it does after `keep_alive_max_requests`).

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use annoda_serve::loadgen::read_response;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Conn {
    addr: SocketAddr,
    stream: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    fn open(&mut self) -> io::Result<&mut (BufReader<TcpStream>, TcpStream)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            s.set_write_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some((BufReader::new(s.try_clone()?), s));
        }
        Ok(self.stream.as_mut().expect("just opened"))
    }

    /// Sends `wire` and reads the reply. A connection the server closed
    /// between requests is redialed once.
    pub fn send(&mut self, wire: &[u8]) -> io::Result<Reply> {
        let fresh = self.stream.is_none();
        match self.exchange(wire) {
            Ok(r) => Ok(r),
            Err(_) if !fresh => {
                self.stream = None;
                self.exchange(wire)
            }
            Err(e) => Err(e),
        }
    }

    fn exchange(&mut self, wire: &[u8]) -> io::Result<Reply> {
        let result = (|| {
            let (reader, writer) = self.open()?;
            writer.write_all(wire)?;
            read_response(reader)
        })();
        match result {
            Ok((status, body)) => Ok(Reply { status, body }),
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// `GET target` as plain text on a fresh connection.
pub fn get(addr: SocketAddr, target: &str) -> io::Result<Reply> {
    Conn::new(addr).send(
        format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}
