//go:build race

package core

// raceDetector is true under the race detector, whose sync.Pool drops a
// share of Puts on purpose, so allocation pins on pooled paths do not
// hold there.
const raceDetector = true
