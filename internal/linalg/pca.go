package linalg

import "fmt"

// PCA holds the result of a principal-component analysis of a data matrix
// whose rows are observations (time series) and whose columns are time
// positions. Components' rows are the orthonormal principal directions in
// descending order of explained variance — exactly the right singular
// vectors of the mean-centered data matrix, which is what the SVD
// dimensionality-reduction transform of the paper indexes on.
type PCA struct {
	Mean       []float64 // column means of the training data
	Components *Matrix   // k x n, rows orthonormal
	Variances  []float64 // eigenvalues (explained variance per component)
}

// NewPCA computes the top-k principal components of the rows of data
// (observations x dimensions). k must be in [1, cols]. The implementation
// forms the n x n covariance matrix and diagonalizes it with the Jacobi
// eigensolver, which is robust and exact enough for the n <= few hundred
// dimensional series this library indexes.
func NewPCA(data *Matrix, k int) *PCA {
	rows, cols := data.Rows, data.Cols
	if rows == 0 || cols == 0 {
		panic("linalg: PCA of empty matrix")
	}
	if k < 1 || k > cols {
		panic(fmt.Sprintf("linalg: PCA k=%d out of range [1,%d]", k, cols))
	}
	mean := make([]float64, cols)
	for i := 0; i < rows; i++ {
		row := data.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(rows)
	}
	// Covariance C = (1/rows) * sum (x - mean)(x - mean)^T.
	cov := NewMatrix(cols, cols)
	centered := make([]float64, cols)
	for i := 0; i < rows; i++ {
		row := data.Row(i)
		for j := range centered {
			centered[j] = row[j] - mean[j]
		}
		for a := 0; a < cols; a++ {
			ca := centered[a]
			if ca == 0 {
				continue
			}
			crow := cov.Row(a)
			for b := a; b < cols; b++ {
				crow[b] += ca * centered[b]
			}
		}
	}
	inv := 1 / float64(rows)
	for a := 0; a < cols; a++ {
		for b := a; b < cols; b++ {
			v := cov.At(a, b) * inv
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	values, vectors := EigenSym(cov)
	comp := NewMatrix(k, cols)
	for i := 0; i < k; i++ {
		copy(comp.Row(i), vectors.Row(i))
	}
	return &PCA{Mean: mean, Components: comp, Variances: values[:k]}
}
