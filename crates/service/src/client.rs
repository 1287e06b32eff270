//! Client handles: submit requests, optionally drive the runtime's
//! retry policy against `Overloaded` / `Shed` / `Failed` responses.

use crate::request::{Request, Response};
use crate::service::Core;
use crate::ticket::Ticket;
use rcuarray::{Element, RcuArray, Scheme};
use rcuarray_runtime::{task, CommError, OpKind, RetryPolicy};
use std::sync::Arc;
use std::time::Duration;

/// Cap on how long a retrying client honors one `retry_after` hint, so
/// a pathological hint cannot stall a retry loop.
const MAX_RETRY_AFTER: Duration = Duration::from_millis(5);

/// A handle for submitting requests to a [`Service`](crate::Service).
///
/// Cheap to clone; every clone talks to the same service core. Retryable
/// responses ([`Response::is_retryable`]) can be driven through the
/// runtime's [`RetryPolicy`] with [`call_with_retry`](Client::call_with_retry):
/// `Overloaded` maps to [`CommError::Backpressure`] (honoring the
/// server's `retry_after` hint first), `Shed` and `Failed` map to
/// [`CommError::Transient`] — so service overload participates in the
/// same decorrelated-jitter backoff as any other communication fault.
pub struct Client<T: Element, S: Scheme> {
    core: Arc<Core<T, S>>,
    retry: RetryPolicy,
}

impl<T: Element, S: Scheme> Clone for Client<T, S> {
    fn clone(&self) -> Self {
        Client {
            core: Arc::clone(&self.core),
            retry: self.retry,
        }
    }
}

impl<T: Element, S: Scheme> Client<T, S> {
    pub(crate) fn new(core: Arc<Core<T, S>>) -> Self {
        Client {
            core,
            retry: RetryPolicy::new(4, Duration::from_secs(1)),
        }
    }

    /// Replace the policy [`call_with_retry`](Client::call_with_retry) uses.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Submit without waiting; the [`Ticket`] is the response handle.
    pub fn submit(&self, req: Request<T>) -> Ticket<T> {
        self.core.submit(req)
    }

    /// Submit and block for the response (no retries).
    pub fn call(&self, req: Request<T>) -> Response<T> {
        self.core.submit(req).wait()
    }

    /// Submit, and retry retryable responses under this client's
    /// [`RetryPolicy`]. `Err` means the policy's attempt or time budget
    /// ran out with the service still refusing.
    pub fn call_with_retry(&self, req: &Request<T>) -> Result<Response<T>, CommError> {
        let comm = self.core.array.cluster().comm();
        self.retry.run(comm, || {
            match self.core.submit(req.clone()).wait() {
                Response::Overloaded { retry_after } => {
                    // Honor the server's hint (bounded), then let the
                    // policy add its own jittered backoff.
                    rcuarray_analysis::thread::sleep(retry_after.min(MAX_RETRY_AFTER));
                    Err(CommError::Backpressure {
                        op: OpKind::RemoteExec,
                        locale: task::current_locale(),
                    })
                }
                Response::Shed { .. } | Response::Failed => Err(CommError::Transient {
                    op: OpKind::RemoteExec,
                    locale: task::current_locale(),
                }),
                resp => Ok(resp),
            }
        })
    }

    /// The served array (read-only inspection; e.g. capacity checks).
    pub fn array(&self) -> &RcuArray<T, S> {
        &self.core.array
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Service, ServiceConfig};
    use rcuarray::{Config, EbrArray};
    use rcuarray_runtime::{Cluster, Topology};

    #[test]
    fn call_with_retry_passes_through_success() {
        let cluster = Cluster::new(Topology::new(1, 2));
        let array = EbrArray::<u64>::with_config(&cluster, Config::with_block_size(8));
        array.resize(16);
        let service = Service::start(array, ServiceConfig::default());
        let client = service.client();
        assert_eq!(
            client.call_with_retry(&Request::Put { idx: 2, value: 9 }),
            Ok(Response::Done { applied: 1 })
        );
        assert_eq!(
            client.call_with_retry(&Request::Get { idx: 2 }),
            Ok(Response::Value(Some(9)))
        );
        service.shutdown();
    }

    #[test]
    fn clones_share_the_core() {
        let cluster = Cluster::new(Topology::new(1, 2));
        let array = EbrArray::<u64>::with_config(&cluster, Config::with_block_size(8));
        array.resize(8);
        let service = Service::start(array, ServiceConfig::default());
        let a = service.client();
        let b = a
            .clone()
            .with_retry_policy(RetryPolicy::new(0, Duration::from_millis(10)));
        assert_eq!(
            a.call(Request::Put { idx: 0, value: 5 }),
            Response::Done { applied: 1 }
        );
        assert_eq!(b.call(Request::Get { idx: 0 }), Response::Value(Some(5)));
        service.shutdown();
    }
}
