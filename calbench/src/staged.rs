//! Staged replicas of the checks, for the traced run.
//!
//! Each replica calls the public function of every layer in the order the
//! program does and opens a `ds-trace/v1` span around each call, so the
//! trace splits a check's time across the crates without any span inside
//! the program.  The replicas return the verdict they reach; the traced run
//! requires it to equal the verdict of `PassivityCheck` on the same input.

use ds_obs::trace::span;
use ds_passivity_suite::circuits::mna;
use ds_passivity_suite::descriptor::weierstrass::{decompose, WeierstrassOptions};
use ds_passivity_suite::descriptor::{transfer, DescriptorSystem, StateSpace};
use ds_passivity_suite::harness::sweep::verdict_fields;
use ds_passivity_suite::linalg::decomp::{lu, schur, symmetric};
use ds_passivity_suite::linalg::sign::{matrix_sign_into, SignOptions};
use ds_passivity_suite::linalg::sparse::SparseLu;
use ds_passivity_suite::linalg::workspace::with_thread_pool;
use ds_passivity_suite::linalg::{Complex, Matrix};
use ds_passivity_suite::netlist::parse_deck;
use ds_passivity_suite::passivity::fast::FastTestOptions;
use ds_passivity_suite::passivity::weierstrass_test::WeierstrassTestOptions;
use ds_passivity_suite::passivity::PassivityError;
use ds_passivity_suite::passivity::{proper, reduction, residue};
use ds_passivity_suite::passivity::{NonPassivityReason, PassivityVerdict};
use ds_passivity_suite::shh::krylov::{reduce_prima, ReduceSpec};
use ds_passivity_suite::shh::pencil::build_phi;
use ds_passivity_suite::shh::positive_real::{
    test_positive_real, PositiveRealOptions, PositiveRealVerdict,
};
use ds_passivity_suite::shh::ShhError;

/// A replica's verdict: passive flag and the pipeline's reason slug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Whether the check found the network passive.
    pub passive: bool,
    /// Reason slug (as `CheckOutcome::reason` carries it).
    pub reason: String,
}

impl Verdict {
    fn of(verdict: &PassivityVerdict) -> Verdict {
        let (passive, _, slug) = verdict_fields(verdict);
        Verdict {
            passive,
            reason: slug.to_string(),
        }
    }
}

/// What the proposed replica learned besides the verdict.
pub struct ProposedRun {
    /// The verdict.
    pub verdict: Verdict,
    /// Order of the proper Φ-pencil handed to the regularization (0 when
    /// the flow exited before it).
    pub proper_phi_order: usize,
    /// The regularized Hamiltonian `A₄₄`, when the flow reached it.
    pub a44: Option<Matrix>,
}

fn not_passive(reason: NonPassivityReason) -> Verdict {
    Verdict::of(&PassivityVerdict::NotPassive { reason })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Parses deck text and stamps it densely, each under its own span.
pub fn parse_and_stamp(text: &str) -> Result<DescriptorSystem, String> {
    let deck = {
        let _s = span("parse_deck");
        parse_deck(text).map_err(err)?
    };
    let _s = span("stamp");
    mna::stamp(&deck.netlist).map_err(err)
}

/// The paper's SHH test (`ds_passivity::fast::check_passivity` with default
/// options), one span per stage function.
pub fn proposed(sys: &DescriptorSystem) -> Result<ProposedRun, String> {
    let _root = span("proposed");
    let options = FastTestOptions::default();
    let tol = options.rel_tol.max(1e-13);
    let scale = sys.scale();
    let exit = |verdict| ProposedRun {
        verdict,
        proper_phi_order: 0,
        a44: None,
    };
    let phi = {
        let _s = span("build_phi");
        build_phi(sys).map_err(err)?
    };
    let cancelled = {
        let _s = span("cancel_impulsive_modes");
        reduction::cancel_impulsive_modes(&phi, tol).map_err(err)?
    };
    let nondynamic = {
        let _s = span("remove_nondynamic_modes");
        reduction::remove_nondynamic_modes(&cancelled.reduced, tol).map_err(err)?
    };
    if !nondynamic.impulse_free {
        return Ok(exit(not_passive(
            NonPassivityReason::ResidualImpulsiveModes,
        )));
    }
    let m1_sym = {
        let _s = span("extract_m1");
        let m1 = residue::extract_m1(sys, tol).map_err(err)?.m1;
        let m1_sym = if m1.rows() > 0 {
            m1.symmetric_part()
        } else {
            m1
        };
        if cancelled.removed_states > 0 && m1_sym.rows() > 0 {
            let min_eigenvalue = symmetric::min_eigenvalue(&m1_sym).map_err(err)?;
            if min_eigenvalue < -tol.max(1e-10) * scale {
                return Ok(exit(not_passive(NonPassivityReason::IndefiniteResidue {
                    min_eigenvalue,
                })));
            }
        }
        m1_sym
    };
    let restored = {
        let _s = span("restore_shh");
        reduction::restore_shh(&nondynamic.reduced).map_err(err)?
    };
    {
        // Diagnostic bookkeeping the program also pays for on every check.
        let _s = span("rank_e");
        sys.rank_e(tol).map_err(err)?;
    }
    let proper_phi_order = restored.system.order();
    let regular = {
        let _s = span("regularize");
        proper::regularize(&restored.system, tol).map_err(err)?
    };
    let stable = {
        let _s = span("extract_stable_part");
        match proper::extract_stable_part(&regular, tol) {
            Ok(part) => part,
            Err(PassivityError::Shh(ShhError::ImaginaryAxisEigenvalues)) => {
                return Ok(ProposedRun {
                    verdict: not_passive(NonPassivityReason::UnstableFiniteModes),
                    proper_phi_order,
                    a44: Some(regular.a44),
                })
            }
            Err(e) => return Err(e.to_string()),
        }
    };
    let pr_verdict = {
        let _s = span("test_positive_real");
        let pr_options = PositiveRealOptions {
            assume_stable: true,
            ..options.positive_real.clone()
        };
        test_positive_real(&stable.state_space, &pr_options).map_err(err)?
    };
    let anomaly = {
        let _s = span("polynomial_anomaly");
        polynomial_anomaly(sys, &stable.state_space, &m1_sym, options.markov_probes)?
    };
    let verdict = if anomaly {
        PassivityVerdict::NotPassive {
            reason: NonPassivityReason::HigherOrderMarkovParameters,
        }
    } else {
        match pr_verdict {
            PositiveRealVerdict::StrictlyPositiveReal => PassivityVerdict::Passive {
                strictly: m1_sym.norm_max() <= tol * scale,
            },
            PositiveRealVerdict::PositiveReal { .. } => {
                PassivityVerdict::Passive { strictly: false }
            }
            PositiveRealVerdict::NotPositiveReal {
                witness_frequency,
                min_eigenvalue,
            } => PassivityVerdict::NotPassive {
                reason: NonPassivityReason::ProperPartNotPositiveReal {
                    witness_frequency,
                    min_eigenvalue,
                },
            },
        }
    };
    Ok(ProposedRun {
        verdict: Verdict::of(&verdict),
        proper_phi_order,
        a44: Some(regular.a44),
    })
}

/// The polynomial-anomaly probe of the fast test (private in the program,
/// so replicated here on the public `transfer::evaluate`).
fn polynomial_anomaly(
    sys: &DescriptorSystem,
    proper_part: &StateSpace,
    m1_sym: &Matrix,
    probes: (f64, f64),
) -> Result<bool, String> {
    if sys.order() == 0 {
        return Ok(false);
    }
    let proper_ds = proper_part.to_descriptor();
    let mut skew_samples: Vec<Matrix> = Vec::new();
    for sigma in [probes.0, probes.1] {
        let g = match transfer::evaluate(sys, Complex::from_real(sigma)) {
            Ok(v) => v,
            Err(ds_passivity_suite::descriptor::DescriptorError::SingularPencil) => continue,
            Err(e) => return Err(e.to_string()),
        };
        let gp = transfer::evaluate(&proper_ds, Complex::from_real(sigma)).map_err(err)?;
        let sym_g = g.re.symmetric_part();
        let sym_model = &gp.re.symmetric_part() + &m1_sym.scale(sigma);
        let reference = sym_g.norm_max().max(1.0);
        if (&sym_g - &sym_model).norm_max() > 1e-5 * reference {
            return Ok(true);
        }
        skew_samples.push(g.re.skew_part());
    }
    if skew_samples.len() == 2 {
        let drift = (&skew_samples[1] - &skew_samples[0]).norm_max();
        let reference = skew_samples[0].norm_max().max(1.0);
        if drift > 1e-4 * reference.max(m1_sym.norm_max()) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The Weierstrass-decomposition baseline
/// (`ds_passivity::weierstrass_test::check_passivity_weierstrass` with
/// default options), one span per step.
pub fn weierstrass(sys: &DescriptorSystem) -> Result<Verdict, String> {
    let _root = span("weierstrass");
    let tol = WeierstrassTestOptions::default().rel_tol.max(1e-13);
    let scale = sys.scale();
    let decomposition = {
        let _s = span("decompose");
        decompose(sys, &WeierstrassOptions::default()).map_err(err)?
    };
    if decomposition.polynomial_degree() >= 2 {
        return Ok(not_passive(NonPassivityReason::HigherOrderMarkovParameters));
    }
    {
        let _s = span("m1_definiteness");
        let m1 = decomposition.m1(sys.num_outputs(), sys.num_inputs());
        if m1.rows() > 0 && m1.norm_max() > 0.0 {
            let skew_norm = m1.skew_part().norm_max();
            let min_eig = symmetric::min_eigenvalue(&m1.symmetric_part()).map_err(err)?;
            if min_eig < -tol.max(1e-10) * scale || skew_norm > 1e-7 * scale {
                return Ok(not_passive(NonPassivityReason::IndefiniteResidue {
                    min_eigenvalue: min_eig.min(-skew_norm),
                }));
            }
        }
    }
    let proper = &decomposition.proper;
    {
        let _s = span("is_stable");
        if proper.order() > 0 && !proper.is_stable(0.0).map_err(err)? {
            return Ok(not_passive(NonPassivityReason::UnstableFiniteModes));
        }
    }
    let verdict = {
        let _s = span("test_positive_real");
        test_positive_real(proper, &PositiveRealOptions::default()).map_err(err)?
    };
    Ok(Verdict::of(&match verdict {
        PositiveRealVerdict::StrictlyPositiveReal | PositiveRealVerdict::PositiveReal { .. } => {
            PassivityVerdict::Passive { strictly: false }
        }
        PositiveRealVerdict::NotPositiveReal {
            witness_frequency,
            min_eigenvalue,
        } => PassivityVerdict::NotPassive {
            reason: NonPassivityReason::ProperPartNotPositiveReal {
                witness_frequency,
                min_eigenvalue,
            },
        },
    }))
}

/// What the reduce-then-verify replica learned besides the verdict.
pub struct ReduceRun {
    /// The verdict of the proposed test on the reduced model.
    pub verdict: Verdict,
    /// Stored entries of the sparse `C` and `G`.
    pub nnz: usize,
    /// Achieved reduced order.
    pub reduced_order: usize,
    /// Krylov truncation residual.
    pub residual: f64,
    /// The reduced model.
    pub reduced: DescriptorSystem,
    /// The proposed run on the reduced model.
    pub proposed: ProposedRun,
}

/// Parse, sparse stamp, PRIMA reduction and the proposed test on the
/// reduced model — the `PassivityCheck::reduce` path.
pub fn reduce_then_verify(text: &str) -> Result<ReduceRun, String> {
    let _root = span("reduce_then_verify");
    let deck = {
        let _s = span("parse_deck");
        parse_deck(text).map_err(err)?
    };
    let sparse = {
        let _s = span("stamp_sparse");
        mna::stamp_sparse(&deck.netlist).map_err(err)?
    };
    let (c, g, b) = (sparse.c_matrix(), sparse.g_matrix(), sparse.b_dense());
    let reduction = {
        let _s = span("reduce_prima");
        reduce_prima(&c, &g, &b, &ReduceSpec::default()).map_err(err)?
    };
    let proposed = proposed(&reduction.system)?;
    Ok(ReduceRun {
        verdict: proposed.verdict.clone(),
        nnz: c.nnz() + g.nnz(),
        reduced_order: reduction.reduced_order,
        residual: reduction.residual,
        reduced: reduction.system,
        proposed,
    })
}

/// The sparse LU of the shifted system `G + s₀·C` that the reduction
/// factors, timed on its own (span `sparse_lu_factor`).
pub fn sparse_lu_probe(text: &str) -> Result<(), String> {
    let deck = parse_deck(text).map_err(err)?;
    let sparse = mna::stamp_sparse(&deck.netlist).map_err(err)?;
    let k = sparse
        .g_matrix()
        .add_scaled(&sparse.c_matrix(), ReduceSpec::default().shift)
        .map_err(err)?;
    let _s = span("sparse_lu_factor");
    SparseLu::factor(&k).map_err(err)?;
    Ok(())
}

/// Dense kernel calls on the regularized Hamiltonian `A₄₄`, each under its
/// own span.  Returns the sign-iteration count and the dimension.
pub fn kernel_probes(a44: &Matrix) -> Result<(usize, usize), String> {
    let n = a44.rows();
    let _root = span("kernels");
    let iterations = {
        let _s = span("matrix_sign_into");
        let mut out = Matrix::zeros(0, 0);
        with_thread_pool(|pool| {
            matrix_sign_into(a44, &SignOptions::default(), pool.get(n), &mut out)
        })
        .map_err(err)?
    };
    {
        let _s = span("real_schur");
        schur::real_schur(a44).map_err(err)?;
    }
    {
        let _s = span("matmul");
        std::hint::black_box(a44.matmul(a44).map_err(err)?);
    }
    {
        let _s = span("lu_factor");
        std::hint::black_box(lu::factor(a44).map_err(err)?);
    }
    Ok((iterations, n))
}
