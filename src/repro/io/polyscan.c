/* The parser stage's byte scan: one pass over a polygon file.
 *
 * polyscan reads the file's n bytes once, as io.parser_cpu.parse_fsm
 * does, and writes
 *
 *   - values[k]: every integer literal, in file order;
 *   - lines[j], counts[j]: the 0-based line number of each line that
 *     holds a value, and how many it holds;
 *   - out = {values written, lines written, first bad byte or -1, its line}.
 *
 * The bytes allowed outside comments are the digits, ',', ' ', '\t',
 * '\r' and '\n'.  A '#' on a line that holds no value yet starts a
 * comment running to the end of the line.  The first bad byte is a
 * stray byte (a '#' after a value is one) or the 19th digit of a run:
 * 18 digits always fit an int64.  The scan stops there, so the lines
 * before the bad byte's line are complete and the rest may be partial.
 *
 * values needs room for n / 2 + 1 entries, lines and counts too: a
 * value, and a line that holds one, each take a digit and a separator
 * except at the end of the file.  Single-threaded and reentrant; writes
 * nothing outside the four output arrays.
 */

#include <stdint.h>

#define MAX_DIGITS 18

void polyscan(const uint8_t *data, int64_t n, int64_t *values, int64_t *lines,
              int64_t *counts, int64_t *out)
{
    int64_t nv = 0, nl = 0, line = 0, on_line = 0, bad = -1, i = 0;
    while (i < n) {
        uint8_t c = data[i];
        if (c - '0' < 10u) {
            int64_t v = 0, end = i + MAX_DIGITS < n ? i + MAX_DIGITS : n;
            for (; i < end && data[i] - '0' < 10u; i++)
                v = v * 10 + (data[i] - '0');
            if (i < n && data[i] - '0' < 10u) {
                bad = i;
                break;
            }
            values[nv++] = v;
            on_line++;
            continue;
        }
        if (c == '\n') {
            if (on_line) {
                lines[nl] = line;
                counts[nl++] = on_line;
                on_line = 0;
            }
            line++;
        } else if (c == '#') {
            if (on_line) {
                bad = i;
                break;
            }
            while (i < n && data[i] != '\n')
                i++;
            continue;
        } else if (c != ',' && c != ' ' && c != '\t' && c != '\r') {
            bad = i;
            break;
        }
        i++;
    }
    if (on_line) {
        lines[nl] = line;
        counts[nl++] = on_line;
    }
    out[0] = nv;
    out[1] = nl;
    out[2] = bad;
    out[3] = line;
}
