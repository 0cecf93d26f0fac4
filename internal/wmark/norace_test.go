//go:build !race

package wmark

const raceDetector = false
