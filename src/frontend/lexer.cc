#include "src/frontend/lexer.h"

#include <cctype>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "src/ir/errors.h"

namespace exo2 {

namespace {

bool
is_name_start(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
is_name_char(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Single-character symbols. */
constexpr std::string_view kSymbolChars = "()[]:,.=@+-*/%<>";

}  // namespace

std::vector<Token>
tokenize(const std::string& src)
{
    const size_t n = src.size();
    std::vector<Token> toks;
    toks.reserve(n / 2 + 8);  // kernel sources run ~2 chars per token
    std::vector<int> indents{0};
    size_t i = 0;
    int line = 1;

    auto error = [&](const std::string& msg) {
        throw SchedulingError("lex error at line " + std::to_string(line) +
                              ": " + msg);
    };

    bool at_line_start = true;
    int paren_depth = 0;

    while (i <= n) {
        if (at_line_start && paren_depth == 0) {
            // Measure indentation; skip blank / comment-only lines.
            size_t j = i;
            int width = 0;
            while (j < n && (src[j] == ' ' || src[j] == '\t')) {
                width += (src[j] == '\t') ? 8 : 1;
                j++;
            }
            if (j >= n) {
                i = j;
                break;
            }
            if (src[j] == '\n') {
                i = j + 1;
                line++;
                continue;
            }
            if (src[j] == '#') {
                while (j < n && src[j] != '\n')
                    j++;
                i = (j < n) ? j + 1 : j;
                line++;
                continue;
            }
            if (width > indents.back()) {
                indents.push_back(width);
                toks.push_back({TokKind::Indent, "", 0, false, line, 0});
            } else {
                while (width < indents.back()) {
                    indents.pop_back();
                    toks.push_back({TokKind::Dedent, "", 0, false, line, 0});
                }
                if (width != indents.back())
                    error("inconsistent dedent");
            }
            i = j;
            at_line_start = false;
            continue;
        }
        if (i >= n)
            break;
        char c = src[i];
        int col = static_cast<int>(i);
        if (c == '\n') {
            line++;
            i++;
            if (paren_depth == 0) {
                toks.push_back({TokKind::Newline, "", 0, false, line, col});
                at_line_start = true;
            }
            continue;
        }
        if (c == ' ' || c == '\t') {
            i++;
            continue;
        }
        if (c == '#') {
            while (i < n && src[i] != '\n')
                i++;
            continue;
        }
        if (is_name_start(c)) {
            size_t j = i;
            while (j < n && is_name_char(src[j]))
                j++;
            toks.push_back({TokKind::Name, src.substr(i, j - i), 0, false,
                            line, col});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            size_t j = i;
            bool is_float = false;
            while (j < n && (std::isdigit(static_cast<unsigned char>(src[j]))))
                j++;
            if (j < n && src[j] == '.' && j + 1 < n &&
                std::isdigit(static_cast<unsigned char>(src[j + 1]))) {
                is_float = true;
                j++;
                while (j < n &&
                       std::isdigit(static_cast<unsigned char>(src[j]))) {
                    j++;
                }
            } else if (j < n && src[j] == '.' &&
                       (j + 1 >= n ||
                        !is_name_char(src[j + 1]))) {
                // trailing "1." style literal
                is_float = true;
                j++;
            }
            Token t{TokKind::Number, src.substr(i, j - i), 0, is_float, line,
                    col};
            t.number = std::strtod(t.text.c_str(), nullptr);
            toks.push_back(std::move(t));
            i = j;
            continue;
        }
        // Multi-char symbols first: `+=`, `<=`, `>=`, `==`, `!=`.
        if (i + 1 < n && src[i + 1] == '=' &&
            (c == '+' || c == '<' || c == '>' || c == '=' || c == '!')) {
            toks.push_back({TokKind::Symbol, std::string{c, '='}, 0, false,
                            line, col});
            i += 2;
            continue;
        }
        if (c == '(' || c == '[')
            paren_depth++;
        if (c == ')' || c == ']')
            paren_depth--;
        if (kSymbolChars.find(c) != std::string_view::npos) {
            toks.push_back({TokKind::Symbol, std::string(1, c), 0, false,
                            line, col});
            i++;
            continue;
        }
        error(std::string("unexpected character '") + c + "'");
    }
    if (!toks.empty() && toks.back().kind != TokKind::Newline)
        toks.push_back({TokKind::Newline, "", 0, false, line, 0});
    while (indents.size() > 1) {
        indents.pop_back();
        toks.push_back({TokKind::Dedent, "", 0, false, line, 0});
    }
    toks.push_back({TokKind::EndOfFile, "", 0, false, line, 0});
    return toks;
}

}  // namespace exo2
