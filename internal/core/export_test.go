package core

import "microspec/internal/catalog"

// BakedWord is one constant-offset word step of a GCL deform program.
type BakedWord struct {
	Off  int
	Wide bool
}

// BakedWords returns the constant-offset word steps of rel's GCL deform
// program by attribute ordinal, for tests outside the package.
func BakedWords(rel *catalog.Relation) map[int]BakedWord {
	out := map[int]BakedWord{}
	for i, op := range buildDeformProgram(rel) {
		switch op.op {
		case deformOpWord4Const:
			out[i] = BakedWord{Off: int(op.off)}
		case deformOpWord8Const:
			out[i] = BakedWord{Off: int(op.off), Wide: true}
		}
	}
	return out
}
