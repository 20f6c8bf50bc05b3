//! Typed service errors.
//!
//! Every failure mode a client can observe has its own variant, so both
//! the HTTP layer (status codes) and in-process callers (soak tests,
//! load generators) can match on *what* went wrong instead of parsing
//! strings. The error is `Clone` because a single computation may be
//! shared by many coalesced waiters: the leader's failure is handed to
//! every follower of the same job key.

use std::fmt;

/// Every resource a [`ServiceError::BudgetExceeded`] can name: the
/// admission budget's and the front ends' request-body cap.
const BUDGET_RESOURCES: [&str; 6] = [
    "netlist_bytes",
    "nodes",
    "devices",
    "mna_dim",
    "nonzeros",
    "body_bytes",
];

/// What went wrong with a job submission or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The bounded queue was full: the job was rejected at admission, not
    /// queued. Clients should back off and retry.
    Overloaded {
        /// Queue capacity at the time of rejection.
        queue_capacity: usize,
    },
    /// The job did not finish before its deadline. The result (if the
    /// solve eventually completed) is discarded, not cached.
    DeadlineExceeded,
    /// The job was cancelled before a worker picked it up.
    Canceled,
    /// The job specification failed validation or could not be parsed.
    InvalidSpec(String),
    /// The underlying analysis failed (non-convergence, singular matrix,
    /// bad parameters). Carries the stringified analog/modulator error.
    Analysis(String),
    /// A *transient* analysis failure (the solver ran out of Newton
    /// budget). Unlike [`ServiceError::Analysis`], this is worth
    /// retrying: a warmer workspace or a later attempt may converge.
    /// Injected faults also surface here.
    Transient(String),
    /// The worker computing this job panicked or disappeared before
    /// publishing. The flight was released, nothing was cached.
    Internal(String),
    /// The service is draining and no longer admits jobs.
    ShuttingDown,
    /// A submitted netlist failed the strict dialect-v1 parse. Carries the
    /// rendered parse error (line/column/reason). Maps to `422`.
    NetlistRejected(String),
    /// A submitted circuit exceeded the pre-solve admission budget: the
    /// priced resource, the submitted amount and the configured limit.
    /// Rejected before any factorization or Newton iteration. Maps to
    /// `413`.
    BudgetExceeded {
        /// Which resource was over budget (`netlist_bytes`, `nodes`,
        /// `devices`, `mna_dim`, `nonzeros`, or the request's
        /// `body_bytes`).
        resource: &'static str,
        /// The amount the submission asked for.
        actual: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// The request was not received within the front end's read deadline.
    /// Maps to `408`; a client may resend it.
    RequestTimeout,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { queue_capacity } => {
                write!(f, "overloaded: queue of {queue_capacity} jobs is full")
            }
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::Canceled => write!(f, "canceled"),
            ServiceError::InvalidSpec(msg) => write!(f, "invalid job spec: {msg}"),
            ServiceError::Analysis(msg) => write!(f, "analysis failed: {msg}"),
            ServiceError::Transient(msg) => write!(f, "transient failure: {msg}"),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::NetlistRejected(msg) => write!(f, "netlist rejected: {msg}"),
            ServiceError::BudgetExceeded {
                resource,
                actual,
                limit,
            } => write!(
                f,
                "admission budget exceeded: {resource} {actual} over limit {limit}"
            ),
            ServiceError::RequestTimeout => write!(f, "request not received in time"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// The HTTP status code this error maps to on the wire.
    ///
    /// Load-shed rejections ([`ServiceError::Overloaded`],
    /// [`ServiceError::ShuttingDown`]) and transient failures are `503`
    /// so well-behaved clients back off and retry (the response carries a
    /// `Retry-After` header); permanent failures keep their 4xx/5xx
    /// classes.
    #[must_use]
    pub fn http_status(&self) -> u16 {
        match self {
            ServiceError::Overloaded { .. } => 503,
            ServiceError::DeadlineExceeded => 504,
            ServiceError::Canceled => 499,
            ServiceError::InvalidSpec(_) => 400,
            ServiceError::Analysis(_) => 422,
            ServiceError::Transient(_) => 503,
            ServiceError::Internal(_) => 500,
            ServiceError::ShuttingDown => 503,
            ServiceError::NetlistRejected(_) => 422,
            ServiceError::BudgetExceeded { .. } => 413,
            ServiceError::RequestTimeout => 408,
        }
    }

    /// A short machine-readable code for the JSON error body.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::DeadlineExceeded => "deadline_exceeded",
            ServiceError::Canceled => "canceled",
            ServiceError::InvalidSpec(_) => "invalid_spec",
            ServiceError::Analysis(_) => "analysis_failed",
            ServiceError::Transient(_) => "transient",
            ServiceError::Internal(_) => "internal",
            ServiceError::ShuttingDown => "shutting_down",
            ServiceError::NetlistRejected(_) => "netlist_rejected",
            ServiceError::BudgetExceeded { .. } => "budget_exceeded",
            ServiceError::RequestTimeout => "request_timeout",
        }
    }

    /// Reads an HTTP error answer back as the error it encodes: the
    /// inverse of the `{"error": code, "message": …}` body both front
    /// ends write. Each code [`ServiceError::code`] emits maps back to its
    /// variant; message variants keep the message (less the prefix their
    /// `Display` adds), numeric fields read as 0, and a budget resource
    /// the service does not price reads as `"unknown"`. Any other answer
    /// — the router's own `router_overloaded`/`no_backend`, a `not_found`,
    /// a body that is not JSON — is [`ServiceError::Internal`] carrying
    /// `"status N: body"`.
    #[must_use]
    pub fn from_wire(status: u16, body: &str) -> ServiceError {
        let doc = crate::json::parse(body).ok();
        let field = |key| doc.as_ref()?.get(key)?.as_str();
        let message = field("message").unwrap_or_default();
        let text = |blank: fn(String) -> ServiceError| {
            let prefix = blank(String::new()).to_string();
            blank(message.strip_prefix(&prefix).unwrap_or(message).to_string())
        };
        match field("error").unwrap_or_default() {
            "overloaded" => ServiceError::Overloaded { queue_capacity: 0 },
            "deadline_exceeded" => ServiceError::DeadlineExceeded,
            "canceled" => ServiceError::Canceled,
            "invalid_spec" => text(ServiceError::InvalidSpec),
            "analysis_failed" => text(ServiceError::Analysis),
            "transient" => text(ServiceError::Transient),
            "internal" => text(ServiceError::Internal),
            "shutting_down" => ServiceError::ShuttingDown,
            "netlist_rejected" => text(ServiceError::NetlistRejected),
            "budget_exceeded" => ServiceError::BudgetExceeded {
                resource: BUDGET_RESOURCES
                    .into_iter()
                    .find(|r| message.split(' ').any(|word| word == *r))
                    .unwrap_or("unknown"),
                actual: 0,
                limit: 0,
            },
            "request_timeout" => ServiceError::RequestTimeout,
            _ => ServiceError::Internal(format!("status {status}: {body}")),
        }
    }

    /// Whether a retry of the same submission can plausibly succeed.
    ///
    /// Transient solver failures and worker crashes are retryable (the
    /// flight was released and nothing was cached); overload is retryable
    /// *by clients* after backing off, but the service itself does not
    /// re-enqueue overloaded work — that would defeat admission control —
    /// so [`crate::service::SiService`] only auto-retries the first two.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServiceError::Transient(_) | ServiceError::Internal(_))
    }

    /// Whether a *client* should back off and resubmit: everything
    /// [`ServiceError::is_retryable`] covers plus load-shed rejections and
    /// requests the front end timed out before receiving.
    #[must_use]
    pub fn is_client_retryable(&self) -> bool {
        self.is_retryable()
            || matches!(
                self,
                ServiceError::Overloaded { .. } | ServiceError::RequestTimeout
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_failure() {
        let cases: Vec<(ServiceError, &str)> = vec![
            (ServiceError::Overloaded { queue_capacity: 8 }, "queue of 8"),
            (ServiceError::DeadlineExceeded, "deadline"),
            (ServiceError::Canceled, "canceled"),
            (ServiceError::InvalidSpec("bad stages".into()), "bad stages"),
            (
                ServiceError::Analysis("no convergence".into()),
                "no convergence",
            ),
            (
                ServiceError::Transient("iteration budget".into()),
                "transient",
            ),
            (
                ServiceError::Internal("worker panicked".into()),
                "worker panicked",
            ),
            (ServiceError::ShuttingDown, "shutting down"),
            (ServiceError::RequestTimeout, "not received in time"),
            (
                ServiceError::NetlistRejected("line 2, column 8: bad value".into()),
                "line 2, column 8",
            ),
            (
                ServiceError::BudgetExceeded {
                    resource: "nonzeros",
                    actual: 120000,
                    limit: 65536,
                },
                "nonzeros 120000 over limit 65536",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn http_status_mapping_is_stable() {
        assert_eq!(
            ServiceError::Overloaded { queue_capacity: 1 }.http_status(),
            503
        );
        assert_eq!(ServiceError::DeadlineExceeded.http_status(), 504);
        assert_eq!(ServiceError::InvalidSpec(String::new()).http_status(), 400);
        assert_eq!(ServiceError::Transient(String::new()).http_status(), 503);
        assert_eq!(ServiceError::Internal(String::new()).http_status(), 500);
        assert_eq!(ServiceError::ShuttingDown.http_status(), 503);
        assert_eq!(ServiceError::RequestTimeout.http_status(), 408);
        assert_eq!(
            ServiceError::NetlistRejected(String::new()).http_status(),
            422
        );
        assert_eq!(
            ServiceError::BudgetExceeded {
                resource: "nodes",
                actual: 10,
                limit: 1,
            }
            .http_status(),
            413
        );
    }

    #[test]
    fn retryability_is_typed() {
        assert!(ServiceError::Transient(String::new()).is_retryable());
        assert!(ServiceError::Internal(String::new()).is_retryable());
        assert!(!ServiceError::Overloaded { queue_capacity: 4 }.is_retryable());
        assert!(ServiceError::Overloaded { queue_capacity: 4 }.is_client_retryable());
        assert!(!ServiceError::InvalidSpec(String::new()).is_retryable());
        assert!(!ServiceError::Analysis(String::new()).is_client_retryable());
        assert!(!ServiceError::DeadlineExceeded.is_retryable());
        assert!(!ServiceError::ShuttingDown.is_retryable());
        assert!(!ServiceError::RequestTimeout.is_retryable());
        assert!(ServiceError::RequestTimeout.is_client_retryable());
        assert!(!ServiceError::NetlistRejected(String::new()).is_client_retryable());
        assert!(!ServiceError::BudgetExceeded {
            resource: "devices",
            actual: 2,
            limit: 1,
        }
        .is_client_retryable());
    }

    /// Every variant's wire body reads back as the same variant: message
    /// variants whole, numeric ones with their fields zeroed. Answers the
    /// service never writes read as `Internal`, with status and body.
    #[test]
    fn from_wire_inverts_the_error_body() {
        let all = [
            ServiceError::Overloaded { queue_capacity: 8 },
            ServiceError::DeadlineExceeded,
            ServiceError::Canceled,
            ServiceError::InvalidSpec("bad stages".into()),
            ServiceError::Analysis("analysis failed: nested".into()),
            ServiceError::Transient("iteration budget".into()),
            ServiceError::Internal("worker panicked".into()),
            ServiceError::ShuttingDown,
            ServiceError::NetlistRejected("line 2, column 8: bad value".into()),
            ServiceError::BudgetExceeded {
                resource: "mna_dim",
                actual: 120_000,
                limit: 65_536,
            },
            ServiceError::BudgetExceeded {
                resource: "body_bytes",
                actual: 1 << 21,
                limit: 1 << 20,
            },
            ServiceError::RequestTimeout,
        ];
        for err in all {
            let body = crate::http::error_body(&err);
            let back = ServiceError::from_wire(err.http_status(), &body);
            let expected = match err {
                ServiceError::Overloaded { .. } => ServiceError::Overloaded { queue_capacity: 0 },
                ServiceError::BudgetExceeded { resource, .. } => ServiceError::BudgetExceeded {
                    resource,
                    actual: 0,
                    limit: 0,
                },
                other => other,
            };
            assert_eq!(back, expected, "{body}");
        }
        for (status, body) in [
            (
                503,
                r#"{"error":"no_backend","message":"no ready replica"}"#,
            ),
            (404, r#"{"error":"not_found","message":"unknown route"}"#),
            (502, "<html>bad gateway</html>"),
            (500, ""),
        ] {
            assert_eq!(
                ServiceError::from_wire(status, body),
                ServiceError::Internal(format!("status {status}: {body}"))
            );
        }
        let unpriced = r#"{"error":"budget_exceeded","message":"over"}"#;
        assert_eq!(
            ServiceError::from_wire(413, unpriced),
            ServiceError::BudgetExceeded {
                resource: "unknown",
                actual: 0,
                limit: 0,
            }
        );
    }
}
