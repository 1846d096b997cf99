// Code generated by cmd/goldens; regenerate with `make goldens`. DO NOT EDIT.

package exp

import "strings"

// Golden report fingerprints: sha256 of the rendered report at Small
// scale, seed 1. A key is an experiment id, rendered over its default
// benchmark list, or id@bench,bench,..., rendered over that preset
// subset. The golden tests re-render each pin at cell-parallelism and
// intra-run-worker counts {1,8}² and require every rendering to match
// these bytes, so a pin covers determinism as well as model behavior.
// Any intentional model change re-pins via `make goldens` (which also
// means the diff to this file is the reviewable "blast radius" of the
// change).
var goldenSHA256 = map[string]string{
	"consol":                   "aba3cfe0853dd432686fa3f4bc4588f92b130fd4e5d1c71b5f5984d7ed04554e",
	"fig10@wupwise":            "5f46bd26134f51739de7895f3e480f3b4899a672733ec4efd580fb56fbd9f0a3",
	"fig11":                    "0571508391af23cbb790e1d14ae1f5c7232330879937e7037dc22e9e8e88db4d",
	"fig12@gap,sixtrack,swim":  "e8ec8b1740974fa27888df3436c3f037ca9252568eca81f295db54d88813e5fc",
	"fig2@gap,sixtrack,swim":   "8469cc06cdd64f9d4382fbb25a3010df0100f653da81ac3b6146e34f9137ceae",
	"fig4@wupwise":             "3eace02942f1077ebad11703b97f26f7f508014ac77650ded0534637b879819f",
	"fig8@wupwise":             "b5df02c906b598ad37b926bce399aba642b89be25abf85477b8f3aa0e33df86d",
	"fig9@wupwise":             "bc1f7f3c8269a021bd6bcf7c562ead2c0919a63cb4ee56395c2d78ab6d4368de",
	"table2@gap,sixtrack,swim": "4bbbdbb29a259728a068e0dc572ba324f799e4c7c27483498684d48d732f0188",
	"table3@gap,sixtrack,swim": "c018a67f1a061bed7df35133edc0e14114f920102de3a4623e40819251a557c4",
}

// GoldenSHA256 returns the pinned report fingerprint for a golden key,
// or "" if the key is not pinned.
func GoldenSHA256(key string) string { return goldenSHA256[key] }

// GoldenIDs returns the pinned golden keys in the order they appear in
// the generated table.
func GoldenIDs() []string {
	return []string{"consol", "fig10@wupwise", "fig11", "fig12@gap,sixtrack,swim", "fig2@gap,sixtrack,swim", "fig4@wupwise", "fig8@wupwise", "fig9@wupwise", "table2@gap,sixtrack,swim", "table3@gap,sixtrack,swim"}
}

// GoldenPin splits a golden key into its experiment id and benchmark
// subset (nil: the experiment's default list).
func GoldenPin(key string) (id string, benches []string) {
	id, list, ok := strings.Cut(key, "@")
	if ok {
		benches = strings.Split(list, ",")
	}
	return id, benches
}
