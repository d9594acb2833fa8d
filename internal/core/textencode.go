package core

import (
	"bytes"
	"context"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/tcube"
)

// This file is the text feeder of the word kernel: /encode's 01X body
// goes straight from its row bytes into the kernel, parsed 64 trits per
// bitvec.Parse64 load, with no Set, no plane slab and no scanner in
// between. The feeder vouches only for bodies whose meaning it cannot
// get wrong — rows of 0, 1, x, X and '-' of one width, '#' comment
// lines and empty lines, every line under tcube.MaxLineBytes — and
// reports any other body as not vouched for, so the caller parses it
// with tcube.Read and every error stays the parser's. Parse64 reads
// canonical 0/1/X text on its fast path; to keep every load canonical,
// a row's last partial word is read from the 64 bytes that end the
// row, not from bytes that run into the newline and the next row.

// rowWords is how many plane words of a row the feeder stages before
// handing them to the kernel: 4096 trits, 1 KiB per plane, on the stack.
const rowWords = 64

// initRows caps the rows the writer is first sized for. A body holding
// more grows it row by row (doubling), so the writer follows the rows
// actually encoded; comment and blank lines reserve nothing.
const initRows = 256

// EncodeText encodes a test set given as 01X text, exactly as
// tcube.Read followed by Encode would: the same stream, counts and
// geometry. ok=false means the text path does not vouch for text — a
// byte other than 0, 1, x, X, '-' in a pattern row (CR, space and tab
// included), rows of different widths, a line of tcube.MaxLineBytes or
// more, no pattern row at all, or a K without a word kernel — and the
// caller must take the parser path. ctx is checked between patterns; a
// done ctx is reported as ok=false too, so the parser path decides
// between its own error and Encode's ctx error. With a non-nil ws the
// Result aliases the workspace, as for Encode. Name is left empty.
func (c *Codec) EncodeText(ctx context.Context, text []byte, ws *Workspace) (*Result, bool) {
	if c.kops == nil {
		return nil, false
	}
	pos, ok := skipToRow(text, 0)
	if !ok || pos == len(text) {
		return nil, false
	}
	width := bytes.IndexByte(text[pos:], '\n')
	if width < 0 {
		width = len(text) - pos
	}
	if width >= tcube.MaxLineBytes {
		return nil, false
	}
	var res *Result
	var w *kernelWriter
	if ws != nil {
		res, w = &ws.res, &ws.enc
	} else {
		res, w = new(Result), new(kernelWriter)
	}
	blocksPer := (width + c.k - 1) / c.k
	// Every row but the last takes width+1 bytes.
	rows := min((len(text)-pos+1)/(width+1), initRows)
	w.reset(c.worstBits(rows * blocksPer))
	*res = Result{K: c.k, Assign: c.assign, Width: width}
	sp := obs.SpanCtx(ctx, "core.encode_set")
	e := c.wordEncoder(w, &res.Counts)
	patterns, ok := c.encodeRows(ctx, &e, w, text, pos, width)
	// Closed even when abandoned: the writer's next reset clears only
	// the words its length says were written.
	e.close(w)
	if !ok {
		// Abandoned: the span is never ended, so the parser path's
		// encode records the only one.
		return nil, false
	}
	res.Patterns, res.OrigBits, res.Blocks = patterns, patterns*width, patterns*blocksPer
	if ws != nil {
		res.Stream = ws.takeStream()
	} else {
		res.Stream = w.take()
	}
	res.LeftoverX = res.Stream.XCount()
	observeEncode(sp, res)
	return res, true
}

// skipToRow returns the offset of the first pattern row at or after
// pos, skipping empty lines and '#' comment lines, or len(text) when
// none is left. ok=false means a comment line too long for tcube.Read.
func skipToRow(text []byte, pos int) (int, bool) {
	for pos < len(text) {
		switch text[pos] {
		case '\n':
			pos++
		case '#':
			n := bytes.IndexByte(text[pos:], '\n')
			if n < 0 {
				n = len(text) - pos
			}
			if n >= tcube.MaxLineBytes {
				return pos, false
			}
			pos += n + 1
		default:
			return pos, true
		}
	}
	return len(text), true
}

// encodeRows feeds every row from pos on to the kernel, which writes
// into w, and returns the row count. ok=false means a row or line the
// path does not vouch for, or a done ctx; the kernel's output is then
// garbage.
func (c *Codec) encodeRows(ctx context.Context, e *wordEnc, w *kernelWriter, text []byte, pos, width int) (patterns int, ok bool) {
	blocksPer := (width + c.k - 1) / c.k
	rowBits := c.worstBits(blocksPer)
	cancellable := ctx.Done() != nil
	var care, val [rowWords]uint64
	// A row narrower than a word is parsed from tail, X past the row.
	var tail [64]byte
	if width < 64 {
		for i := range tail {
			tail[i] = 'X'
		}
	}
	for pos < len(text) {
		end := pos + width
		if end > len(text) || end < len(text) && text[end] != '\n' {
			return 0, false // a ragged row
		}
		if cancellable && ctx.Err() != nil {
			return 0, false
		}
		e.reserve(w, rowBits)
		blocks := blocksPer
		for off := 0; off < width; off += rowWords * 64 {
			m := 0
			for ; m < rowWords && off+m*64 < width; m++ {
				p := pos + off + m*64
				var cw, vw, bad uint64
				switch rem := end - p; {
				case rem >= 64:
					cw, vw, bad = bitvec.Parse64((*[64]byte)(text[p:]))
				case width >= 64:
					// The row's last rem bytes end a word-wide window that
					// lies inside the row; the shift drops the bytes parsed
					// already and leaves X padding above.
					cw, vw, bad = bitvec.Parse64((*[64]byte)(text[end-64:]))
					cw, vw, bad = cw>>(64-rem), vw>>(64-rem), bad>>(64-rem)
				default:
					copy(tail[:], text[p:end])
					cw, vw, bad = bitvec.Parse64(&tail)
				}
				if bad != 0 {
					return 0, false
				}
				care[m], val[m] = cw, vw
			}
			n := min(blocks, m*64/c.k)
			blocks -= n
			e.encode(care[:m], val[:m], n)
		}
		patterns++
		if pos, ok = skipToRow(text, end+1); !ok {
			return 0, false
		}
	}
	return patterns, true
}
