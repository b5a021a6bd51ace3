package chanspec

import "fmt"

// Generation method names. A spec's "method" field selects which generation
// backend realizes the covariance target: the paper's generalized algorithm
// (the default), or one of the five conventional methods its introduction
// reviews. The same vocabulary is accepted by scenario files, fadingd session
// specs and the public API's Config.Method; docs/methods.md catalogues each
// backend's constraints.
const (
	// MethodGeneralized is the paper's algorithm (Sections 4–5): eigen
	// coloring with zero-clamp positive semi-definiteness forcing. Arbitrary
	// N, arbitrary powers, complex covariances, indefinite targets.
	MethodGeneralized = "generalized"
	// MethodSalzWinters is the Salz & Winters [1] real 2N-dimensional
	// coloring: equal powers only, and the assembled real covariance matrix
	// must be positive semi-definite.
	MethodSalzWinters = "salz_winters"
	// MethodErtelReed is the Ertel & Reed [2] two-branch construction:
	// exactly two equal-power envelopes with a real correlation coefficient.
	MethodErtelReed = "ertel_reed"
	// MethodBeaulieuMerani is the Beaulieu & Merani [4] Cholesky coloring:
	// any N and powers, but the covariance matrix must be strictly positive
	// definite.
	MethodBeaulieuMerani = "beaulieu_merani"
	// MethodNatarajan is the Natarajan, Nassar & Chandrasekhar [5] Cholesky
	// coloring with the covariances forced to be real: complex off-diagonal
	// entries are silently discarded, biasing the achieved covariance.
	MethodNatarajan = "natarajan"
	// MethodSorooshyariDaut is the Sorooshyari & Daut [6] ε-eigenvalue
	// substitution: non-positive eigenvalues are replaced by a small ε > 0
	// (a strictly worse Frobenius approximation than the zero clamp), and the
	// real-time combination assumes unit whitening variance.
	MethodSorooshyariDaut = "sorooshyari_daut"
)

// MethodInfo describes one generation backend for catalogs, reports, the
// fadingd methods endpoint and the public API's Methods (it is also
// rayleigh.MethodInfo).
type MethodInfo struct {
	// Name is the spec value and Config.Method value ("generalized",
	// "salz_winters", …).
	Name string `json:"name"`
	// Title is the human-readable method name.
	Title string `json:"title"`
	// Citation names the source in the paper's reference list.
	Citation string `json:"citation"`
	// Constraints summarizes the configurations the method supports; requests
	// outside them fail with the baseline package's typed errors.
	Constraints string `json:"constraints"`
	// Defects summarizes the accuracy losses the paper attributes to the
	// method on configurations it does accept (empty when none).
	Defects string `json:"defects,omitempty"`
}

// Methods returns the backend catalog in canonical order (the generalized
// engine first, then the conventional methods in the paper's citation order).
func Methods() []MethodInfo {
	return []MethodInfo{
		{
			Name:        MethodGeneralized,
			Title:       "Generalized eigen coloring",
			Citation:    "Tran, Wysocki, Seberry & Mertins, IPDPS 2005 (this paper)",
			Constraints: "any N, equal or unequal powers, complex covariances; indefinite targets are zero-clamped to the closest PSD matrix",
		},
		{
			Name:        MethodSalzWinters,
			Title:       "Real 2N-dimensional coloring",
			Citation:    "Salz & Winters, IEEE Trans. Veh. Technol., 1994 [1]",
			Constraints: "equal powers only; the assembled 2N×2N real covariance matrix must be positive semi-definite",
		},
		{
			Name:        MethodErtelReed,
			Title:       "Two-branch construction",
			Citation:    "Ertel & Reed, IEEE J. Sel. Areas Commun., 1998 [2]",
			Constraints: "exactly N = 2 equal-power envelopes with a real correlation coefficient",
		},
		{
			Name:        MethodBeaulieuMerani,
			Title:       "Cholesky coloring",
			Citation:    "Beaulieu & Merani, 2000 [4]",
			Constraints: "any N and powers; the covariance matrix must be strictly positive definite (rank-deficient and indefinite targets are rejected)",
		},
		{
			Name:        MethodNatarajan,
			Title:       "Real-forced Cholesky coloring",
			Citation:    "Natarajan, Nassar & Chandrasekhar, 2000 [5]",
			Constraints: "any N and powers; the real part of the covariance matrix must be positive definite",
			Defects:     "complex covariances are forced real, so only Re(K) is achieved — complex targets are biased by the discarded imaginary parts",
		},
		{
			Name:        MethodSorooshyariDaut,
			Title:       "ε-eigenvalue substitution",
			Citation:    "Sorooshyari & Daut, 2003 [6]",
			Constraints: "any N, powers and covariances (non-positive eigenvalues are replaced by ε)",
			Defects:     "the ε substitution is a strictly worse Frobenius approximation than the zero clamp, and the real-time combination assumes unit whitening variance, biasing the served covariance",
		},
	}
}

// MethodNames returns the spec values of every backend, in catalog order.
func MethodNames() []string {
	infos := Methods()
	names := make([]string, len(infos))
	for i, m := range infos {
		names[i] = m.Name
	}
	return names
}

// NormalizeMethod maps the empty method to the generalized default.
func NormalizeMethod(method string) string {
	if method == "" {
		return MethodGeneralized
	}
	return method
}

// ValidateMethod rejects method names outside the Methods catalog. The
// empty string is accepted as the generalized default.
func ValidateMethod(method string) error {
	name := NormalizeMethod(method)
	for _, m := range Methods() {
		if m.Name == name {
			return nil
		}
	}
	return fmt.Errorf("unknown generation method %q (want one of %v): %w",
		method, MethodNames(), ErrBadSpec)
}
