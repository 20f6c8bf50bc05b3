//! Pre-solve admission budget for user-submitted circuits.
//!
//! User netlists are priced *before* any factorization or Newton iteration
//! runs: node and device counts come straight off the parsed
//! [`Circuit`], the matrix dimension from [`Circuit::mna_dimension`], and
//! the fill from [`mna_pattern`]'s nonzero count — all linear-time
//! bookkeeping, no numerics. Anything over budget is rejected with a typed
//! [`ServiceError::BudgetExceeded`] (HTTP `413`), so an oversized
//! submission costs the service a parse and a pattern walk, never a
//! factorization.

use crate::error::ServiceError;
use si_analog::mna::mna_pattern;
use si_analog::netlist::Circuit;

/// Resource ceilings applied to submitted netlists at admission.
///
/// The defaults comfortably admit every circuit family in this repo (the
/// largest canned workload, a 4096-stage delay line, prices at ~4k nodes
/// and ~20k nonzeros) while bounding the work a hostile submission can
/// force: the priced quantities are exactly the drivers of factorization
/// cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionBudget {
    /// Maximum netlist text size in bytes.
    pub max_netlist_bytes: usize,
    /// Maximum node count (including ground).
    pub max_nodes: usize,
    /// Maximum element count.
    pub max_devices: usize,
    /// Maximum MNA dimension (nodes − 1 + voltage-source branches).
    pub max_mna_dim: usize,
    /// Maximum structural nonzeros in the MNA matrix.
    pub max_nonzeros: usize,
}

impl Default for AdmissionBudget {
    fn default() -> Self {
        AdmissionBudget {
            max_netlist_bytes: 256 * 1024,
            max_nodes: 8192,
            max_devices: 32768,
            max_mna_dim: 8192,
            max_nonzeros: 131_072,
        }
    }
}

/// What a parsed circuit costs, in the units the budget prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitCost {
    /// Node count including ground.
    pub nodes: usize,
    /// Element count.
    pub devices: usize,
    /// MNA system dimension.
    pub mna_dim: usize,
    /// Structural nonzeros of the MNA matrix.
    pub nonzeros: usize,
}

/// Prices a parsed circuit. Walks the sparsity pattern but performs no
/// factorization.
#[must_use]
pub(crate) fn price_circuit(circuit: &Circuit) -> CircuitCost {
    CircuitCost {
        nodes: circuit.node_count(),
        devices: circuit.elements().len(),
        mna_dim: circuit.mna_dimension(),
        nonzeros: mna_pattern(circuit).nnz(),
    }
}

impl AdmissionBudget {
    /// Checks raw netlist text size before it is even parsed.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::BudgetExceeded`] with resource
    /// `netlist_bytes` when the text is too large.
    pub(crate) fn admit_bytes(&self, len: usize) -> Result<(), ServiceError> {
        if len > self.max_netlist_bytes {
            return Err(ServiceError::BudgetExceeded {
                resource: "netlist_bytes",
                actual: len as u64,
                limit: self.max_netlist_bytes as u64,
            });
        }
        Ok(())
    }

    /// Checks a priced circuit against every ceiling.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::BudgetExceeded`] naming the first resource
    /// over budget (checked in order: nodes, devices, mna_dim, nonzeros).
    pub(crate) fn admit(&self, cost: &CircuitCost) -> Result<(), ServiceError> {
        let checks: [(&'static str, usize, usize); 4] = [
            ("nodes", cost.nodes, self.max_nodes),
            ("devices", cost.devices, self.max_devices),
            ("mna_dim", cost.mna_dim, self.max_mna_dim),
            ("nonzeros", cost.nonzeros, self.max_nonzeros),
        ];
        for (resource, actual, limit) in checks {
            if actual > limit {
                return Err(ServiceError::BudgetExceeded {
                    resource,
                    actual: actual as u64,
                    limit: limit as u64,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_analog::cells::{si_cell_chain, ClassAbCellDesign};

    #[test]
    fn default_budget_admits_canned_workloads() {
        let line = si_cell_chain(64).unwrap();
        let cost = price_circuit(&line.circuit);
        assert_eq!(cost.nodes, 65);
        assert_eq!(cost.mna_dim, 64);
        // The pattern's nonzero count is the admission price: pinned so a
        // layout change that would move a 413 decision fails here.
        assert_eq!(cost.nonzeros, 190);
        AdmissionBudget::default().admit(&cost).unwrap();
        let cell = ClassAbCellDesign::default().build().unwrap();
        assert_eq!(mna_pattern(&cell.cell.circuit).nnz(), 75);
    }

    #[test]
    fn rejection_names_the_first_overbudget_resource() {
        let line = si_cell_chain(16).unwrap();
        let cost = price_circuit(&line.circuit);
        let tight = AdmissionBudget {
            max_nodes: 4,
            max_nonzeros: 1,
            ..AdmissionBudget::default()
        };
        let err = tight.admit(&cost).unwrap_err();
        assert_eq!(
            err,
            ServiceError::BudgetExceeded {
                resource: "nodes",
                actual: cost.nodes as u64,
                limit: 4,
            }
        );
        assert_eq!(err.http_status(), 413);
    }

    #[test]
    fn byte_cap_applies_before_parsing() {
        let b = AdmissionBudget {
            max_netlist_bytes: 10,
            ..AdmissionBudget::default()
        };
        b.admit_bytes(10).unwrap();
        let err = b.admit_bytes(11).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::BudgetExceeded {
                resource: "netlist_bytes",
                actual: 11,
                limit: 10,
            }
        ));
    }
}
