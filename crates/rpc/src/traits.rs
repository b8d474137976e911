use crate::Result;

/// The server side of a service: turns request bytes into response bytes.
///
/// Handlers must be safe to invoke concurrently: a TCP server calls `handle`
/// from a worker pool per connection, so several requests from the *same*
/// connection may be in `handle` simultaneously and complete out of order.
pub trait RpcHandler: Send + Sync {
    /// Processes one request and produces its response.
    fn handle(&self, request: &[u8]) -> Vec<u8>;
}

impl<F> RpcHandler for F
where
    F: Fn(&[u8]) -> Vec<u8> + Send + Sync,
{
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        self(request)
    }
}

/// The client side of a service: a blocking request/response call.
///
/// Implementations are shared across threads; concurrent `call`s on one
/// connection are allowed and (for the TCP transport) pipelined over a
/// single socket.
pub trait ClientConn: Send + Sync {
    /// Sends `request` and waits for the response.
    fn call(&self, request: &[u8]) -> Result<Vec<u8>>;

    /// Split-phase form of [`ClientConn::call`]: issues `request` and
    /// returns a handle whose [`PendingCall::wait`] yields the response.
    /// A caller that starts several calls before waiting on any keeps them
    /// all in flight at once, without threads.
    ///
    /// The default completes the call on the caller's thread before
    /// returning, which is right for in-process transports.
    fn start<'a>(&'a self, request: &'a [u8]) -> PendingCall<'a> {
        let response = self.call(request);
        PendingCall::new(move || response)
    }
}

/// A call issued by [`ClientConn::start`] whose response has not been
/// collected yet.
pub struct PendingCall<'a>(Box<dyn FnOnce() -> Result<Vec<u8>> + 'a>);

impl<'a> PendingCall<'a> {
    /// Wraps the step that completes the call.
    pub fn new(complete: impl FnOnce() -> Result<Vec<u8>> + 'a) -> Self {
        Self(Box::new(complete))
    }

    /// Waits for the response.
    pub fn wait(self) -> Result<Vec<u8>> {
        (self.0)()
    }
}
