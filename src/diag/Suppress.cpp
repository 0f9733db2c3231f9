#include "diag/Suppress.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace rs;
using namespace rs::diag;

bool SuppressionSet::allows(RuleId R, unsigned Line) const {
  for (unsigned Candidate : {Line, Line - 1}) {
    if (Candidate == 0 || Candidate > Line)
      continue;
    auto It = ByLine.find(Candidate);
    if (It != ByLine.end() &&
        std::find(It->second.begin(), It->second.end(), R) != It->second.end())
      return true;
  }
  return false;
}

namespace {

constexpr std::string_view Marker = "rustsight-allow(";

/// Splits the allow-list body on commas and resolves each token.
void scanLine(std::string_view LineText, unsigned LineNo,
              SuppressionSet &Out) {
  size_t Comment = LineText.find("//");
  if (Comment == std::string_view::npos)
    return;
  size_t MarkerPos = LineText.find(Marker, Comment);
  if (MarkerPos == std::string_view::npos)
    return;
  size_t BodyStart = MarkerPos + Marker.size();
  size_t Close = LineText.find(')', BodyStart);
  std::string_view Body =
      Close == std::string_view::npos
          ? LineText.substr(BodyStart)
          : LineText.substr(BodyStart, Close - BodyStart);

  std::vector<RuleId> Known;
  std::vector<std::string> KnownSpellings;
  std::vector<std::pair<size_t, std::string>> UnknownTokens;
  size_t Pos = 0;
  while (Pos <= Body.size()) {
    size_t Comma = Body.find(',', Pos);
    std::string_view Raw = Body.substr(
        Pos, Comma == std::string_view::npos ? Body.npos : Comma - Pos);
    size_t Lead = Raw.find_first_not_of(" \t");
    std::string_view Token = Lead == std::string_view::npos
                                 ? std::string_view{}
                                 : trim(Raw);
    size_t TokenCol = BodyStart + Pos + (Lead == std::string_view::npos
                                             ? 0
                                             : Lead);
    if (!Token.empty()) {
      RuleId R;
      if (ruleFromString(Token, R)) {
        if (std::find(Known.begin(), Known.end(), R) == Known.end()) {
          Known.push_back(R);
          KnownSpellings.emplace_back(Token);
        }
      } else {
        UnknownTokens.emplace_back(TokenCol, std::string(Token));
      }
    }
    if (Comma == std::string_view::npos)
      break;
    Pos = Comma + 1;
  }

  if (!Known.empty()) {
    std::vector<RuleId> &Rules = Out.ByLine[LineNo];
    for (RuleId R : Known)
      if (std::find(Rules.begin(), Rules.end(), R) == Rules.end())
        Rules.push_back(R);
  }

  if (!UnknownTokens.empty()) {
    // The machine-applicable fix: the same line with only the known rules
    // in the allow list, or with the comment removed when nothing remains.
    std::string Fixed;
    if (!Known.empty()) {
      Fixed = std::string(LineText.substr(0, MarkerPos));
      Fixed += Marker;
      for (size_t I = 0; I != KnownSpellings.size(); ++I) {
        if (I)
          Fixed += ", ";
        Fixed += KnownSpellings[I];
      }
      Fixed += ')';
      if (Close != std::string_view::npos)
        Fixed += LineText.substr(Close + 1);
    } else {
      Fixed = std::string(trim(LineText.substr(0, Comment)));
    }
    for (const auto &[Col, Token] : UnknownTokens) {
      UnknownSuppression U;
      U.Line = LineNo;
      U.Col = static_cast<unsigned>(Col) + 1;
      U.Token = Token;
      U.FixedLine = Fixed;
      Out.Unknown.push_back(std::move(U));
    }
  }
}

} // namespace

SuppressionSet rs::diag::scanSuppressions(std::string_view Source) {
  // Most sources carry no marker at all: search the whole text for one,
  // and count newlines only up to each hit's line.
  SuppressionSet Out;
  unsigned LineNo = 1;
  size_t Counted = 0; ///< Newlines before this offset are in LineNo.
  size_t Hit = Source.find(Marker);
  while (Hit != std::string_view::npos) {
    size_t PrevNl = Source.rfind('\n', Hit);
    size_t LineStart = PrevNl == std::string_view::npos ? 0 : PrevNl + 1;
    LineNo += static_cast<unsigned>(std::count(
        Source.begin() + Counted, Source.begin() + LineStart, '\n'));
    Counted = LineStart;
    size_t Nl = Source.find('\n', Hit);
    std::string_view Line =
        Nl == std::string_view::npos ? Source.substr(LineStart)
                                     : Source.substr(LineStart, Nl - LineStart);
    if (!Line.empty() && Line.back() == '\r')
      Line.remove_suffix(1);
    // One scan per line, however many markers it holds.
    scanLine(Line, LineNo, Out);
    if (Nl == std::string_view::npos)
      break;
    Hit = Source.find(Marker, Nl + 1);
  }
  return Out;
}
