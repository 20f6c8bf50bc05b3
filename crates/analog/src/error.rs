use std::error::Error;
use std::fmt;

/// Errors returned by the circuit-simulation substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalogError {
    /// An element parameter was outside its valid domain.
    InvalidElement {
        /// Element name as given to the netlist.
        element: String,
        /// The violated constraint.
        constraint: &'static str,
    },
    /// An element referenced a node id that the circuit does not contain.
    UnknownNode {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the circuit.
        node_count: usize,
    },
    /// Two elements were given the same name.
    DuplicateElement {
        /// The duplicated name.
        element: String,
    },
    /// An element lookup by name failed.
    UnknownElement {
        /// The name that was not found.
        element: String,
    },
    /// The Newton–Raphson iteration did not converge.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// The final node-voltage update norm, in volts
        /// (`f64::INFINITY` when an iterate went non-finite).
        residual: f64,
        /// The gmin (siemens) active during the failing solve — the last
        /// ladder rung the DC fallback reached before giving up.
        gmin: f64,
        /// Per-iteration update norms in iteration order, ending at
        /// `residual`. Failure forensics: shows *how* the solve diverged
        /// (oscillation, stall, blow-up), captured even with telemetry
        /// disabled.
        residual_history: Vec<f64>,
    },
    /// The MNA matrix was singular (circuit has a floating subcircuit or a
    /// voltage-source loop).
    SingularMatrix {
        /// The pivot row at which factorization failed.
        row: usize,
    },
    /// A simulation control parameter was invalid.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// The violated constraint.
        constraint: &'static str,
    },
    /// The requested analysis needs at least one of something.
    EmptyCircuit,
    /// A netlist failed to parse. Carries the 1-based source location and a
    /// rendered description of the typed [`crate::parse::ParseError`] it was
    /// converted from.
    Parse {
        /// 1-based line number of the offending card or directive.
        line: usize,
        /// 1-based column (character offset) of the offending token.
        column: usize,
        /// Human-readable description of what went wrong.
        message: String,
    },
}

impl fmt::Display for AnalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalogError::InvalidElement {
                element,
                constraint,
            } => write!(f, "invalid element `{element}`: {constraint}"),
            AnalogError::UnknownNode { node, node_count } => {
                write!(f, "node {node} out of range for circuit with {node_count} nodes")
            }
            AnalogError::DuplicateElement { element } => {
                write!(f, "element name `{element}` already used")
            }
            AnalogError::UnknownElement { element } => {
                write!(f, "no element named `{element}`")
            }
            AnalogError::NoConvergence {
                iterations,
                residual,
                gmin,
                ..
            } => write!(
                f,
                "newton iteration failed to converge after {iterations} iterations (last residual {residual:.3e} V at gmin {gmin:.1e} S)"
            ),
            AnalogError::SingularMatrix { row } => {
                write!(f, "singular mna matrix at pivot row {row}")
            }
            AnalogError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter `{name}`: {constraint}")
            }
            AnalogError::EmptyCircuit => write!(f, "circuit contains no nodes or elements"),
            AnalogError::Parse {
                line,
                column,
                message,
            } => write!(f, "netlist parse error at line {line}, column {column}: {message}"),
        }
    }
}

impl Error for AnalogError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<AnalogError> {
        vec![
            AnalogError::InvalidElement {
                element: "M1".into(),
                constraint: "width must be positive",
            },
            AnalogError::UnknownNode {
                node: 9,
                node_count: 3,
            },
            AnalogError::DuplicateElement {
                element: "R1".into(),
            },
            AnalogError::UnknownElement {
                element: "Rx".into(),
            },
            AnalogError::NoConvergence {
                iterations: 100,
                residual: 1e-3,
                gmin: 1e-9,
                residual_history: vec![0.5, 0.1, 1e-3],
            },
            AnalogError::SingularMatrix { row: 2 },
            AnalogError::InvalidParameter {
                name: "dt",
                constraint: "must be positive",
            },
            AnalogError::EmptyCircuit,
            AnalogError::Parse {
                line: 3,
                column: 8,
                message: "bad resistance value `5kk`: trailing characters after the number".into(),
            },
        ]
    }

    #[test]
    fn display_is_nonempty_lowercase_unterminated() {
        for e in all_variants() {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn display_invalid_element_names_element_and_constraint() {
        let msg = AnalogError::InvalidElement {
            element: "M1".into(),
            constraint: "width must be positive",
        }
        .to_string();
        assert_eq!(msg, "invalid element `M1`: width must be positive");
    }

    #[test]
    fn display_unknown_node_states_range() {
        let msg = AnalogError::UnknownNode {
            node: 9,
            node_count: 3,
        }
        .to_string();
        assert_eq!(msg, "node 9 out of range for circuit with 3 nodes");
    }

    #[test]
    fn display_duplicate_element_names_offender() {
        let msg = AnalogError::DuplicateElement {
            element: "R1".into(),
        }
        .to_string();
        assert_eq!(msg, "element name `R1` already used");
    }

    #[test]
    fn display_unknown_element_names_query() {
        let msg = AnalogError::UnknownElement {
            element: "Rx".into(),
        }
        .to_string();
        assert_eq!(msg, "no element named `Rx`");
    }

    #[test]
    fn display_no_convergence_includes_last_residual_and_gmin() {
        let msg = AnalogError::NoConvergence {
            iterations: 42,
            residual: 3.5e-4,
            gmin: 1e-6,
            residual_history: vec![0.7, 0.02, 3.5e-4],
        }
        .to_string();
        assert_eq!(
            msg,
            "newton iteration failed to converge after 42 iterations (last residual 3.500e-4 V at gmin 1.0e-6 S)"
        );
        // The message must surface both forensic numbers.
        assert!(msg.contains("3.500e-4"));
        assert!(msg.contains("1.0e-6"));
    }

    #[test]
    fn display_singular_matrix_names_pivot_row() {
        let msg = AnalogError::SingularMatrix { row: 2 }.to_string();
        assert_eq!(msg, "singular mna matrix at pivot row 2");
    }

    #[test]
    fn display_invalid_parameter_names_parameter_and_constraint() {
        let msg = AnalogError::InvalidParameter {
            name: "dt",
            constraint: "must be positive",
        }
        .to_string();
        assert_eq!(msg, "invalid parameter `dt`: must be positive");
    }

    #[test]
    fn display_parse_locates_line_and_column() {
        let msg = AnalogError::Parse {
            line: 2,
            column: 9,
            message: "bad resistance value `oops`: not a number".into(),
        }
        .to_string();
        assert_eq!(
            msg,
            "netlist parse error at line 2, column 9: bad resistance value `oops`: not a number"
        );
    }

    #[test]
    fn display_empty_circuit_is_fixed_text() {
        assert_eq!(
            AnalogError::EmptyCircuit.to_string(),
            "circuit contains no nodes or elements"
        );
    }

    #[test]
    fn no_convergence_history_round_trips_through_clone_and_eq() {
        let e = AnalogError::NoConvergence {
            iterations: 3,
            residual: 0.25,
            gmin: 1e-12,
            residual_history: vec![1.0, 0.5, 0.25],
        };
        let c = e.clone();
        assert_eq!(e, c);
        if let AnalogError::NoConvergence {
            residual,
            residual_history,
            ..
        } = c
        {
            assert_eq!(residual_history.last().copied(), Some(residual));
        } else {
            unreachable!()
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalogError>();
    }
}
